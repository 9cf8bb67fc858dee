//! `recdb-benchmark`: wire-level RECOMMEND/ingest workloads against an
//! in-process `recdb::server::Server`, with an outside-in layer trace.
//! See `benchmark/README.md`.

mod check;
mod driver;
mod report;
mod rng;
mod run;
mod suite;
mod trace;
mod workload;
mod world;

use report::RUN_SECONDS;
use run::RunSpec;
use std::path::PathBuf;
use std::process::ExitCode;
use workload::Workload;

const USAGE: &str = "\
usage: benchmark/run.sh --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
       benchmark/run.sh [--seed N] [--smoke]          every workload, traced, one process each
       benchmark/run.sh --aa [--seed N]               two sets of ten runs per workload, compared
       benchmark/run.sh --emit-manifest               print BENCHMARK.json
env:   RECDB_BENCH_OUT  where results and traces go (default benchmark/out)
       RECDB_BENCH_DIR  where durable workloads keep their data (default $RECDB_BENCH_OUT/data,
                        over which run.sh mounts a tmpfs of its own when it may)";

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<u8>,
    smoke: bool,
    aa: bool,
    emit_manifest: bool,
    help: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    fn value<T: std::str::FromStr>(
        flag: &str,
        argv: &mut impl Iterator<Item = String>,
    ) -> Result<T, String> {
        let raw = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        raw.parse()
            .map_err(|_| format!("{flag}: cannot read `{raw}`"))
    }
    let mut args = Args::default();
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(value(&flag, &mut argv)?),
            "--seed" => args.seed = Some(value(&flag, &mut argv)?),
            "--seconds" => args.seconds = Some(value(&flag, &mut argv)?),
            "--trace" => args.trace = Some(value(&flag, &mut argv)?),
            "--smoke" => args.smoke = true,
            "--aa" => args.aa = true,
            "--emit-manifest" => args.emit_manifest = true,
            "--help" | "-h" => args.help = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Pin this thread, and so every thread spawned after it, to the CPU it is
/// running on. Returns that CPU.
///
/// A single-client workload is a ping-pong between one client thread and
/// one server thread. Left to the scheduler they land on different CPUs at
/// some times and on one at others, and on a virtual machine a cross-CPU
/// wake-up costs tens of microseconds more than a local one: measured
/// here, the same build gave a 50 µs median on one CPU and 105 to 130 µs
/// unpinned, changing from second to second. On one CPU the number is the
/// program's own work. Workloads with several clients are not pinned:
/// their clients are meant to run at the same time.
#[cfg(target_os = "linux")]
fn pin_to_current_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    const WORDS: usize = 16; // 1,024 CPUs, the kernel's own default set size
                             // SAFETY: `sched_getcpu` takes no arguments and only reads.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    let mut mask = [0u64; WORDS];
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialized array of exactly the byte
    // length passed; the kernel only reads it. pid 0 is the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
fn pin_to_current_cpu() -> Option<usize> {
    None
}

fn real_main() -> Result<bool, String> {
    let args = parse_args(std::env::args().skip(1))?;
    if args.help {
        println!("{USAGE}");
        return Ok(true);
    }
    if args.emit_manifest {
        print!("{}", report::manifest());
        return Ok(true);
    }
    let out_dir = PathBuf::from(
        std::env::var_os("RECDB_BENCH_OUT").unwrap_or_else(|| "benchmark/out".into()),
    );
    let data_root =
        std::env::var_os("RECDB_BENCH_DIR").map_or_else(|| out_dir.join("data"), PathBuf::from);
    let seed = args.seed.unwrap_or(1);

    if let Some(name) = &args.workload {
        let workload =
            Workload::from_name(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
        let seconds = args.seconds.unwrap_or(RUN_SECONDS as f64);
        if !(seconds > 0.0 && seconds <= 60.0) {
            return Err(format!("--seconds {seconds}: must be in (0, 60]"));
        }
        let traced = match args.trace.unwrap_or(0) {
            0 => false,
            1 => true,
            other => return Err(format!("--trace {other}: must be 0 or 1")),
        };
        if workload.clients() == 1 {
            match pin_to_current_cpu() {
                Some(cpu) => println!("pinned to cpu {cpu}"),
                None => println!("NOT PINNED: latencies include cross-CPU wake-ups"),
            }
        }
        let report = run::run(&RunSpec {
            workload,
            seed,
            seconds,
            traced,
            single_setup: args.smoke,
            out_dir,
            data_root,
        })?;
        return Ok(report.failed == 0 && report.attempted > 0);
    }
    if args.aa {
        // Beside the crate, not under out/: one such result is committed.
        let aa_file = out_dir
            .parent()
            .map_or_else(|| "AA.json".into(), |p| p.join("AA.json"));
        return suite::aa(seed, &aa_file, &data_root);
    }
    suite::suite(seed, args.smoke, &out_dir, &data_root)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("recdb-benchmark: {why}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
