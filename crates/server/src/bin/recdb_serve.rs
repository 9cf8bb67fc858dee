//! `recdb-serve` — run a durable RecDB server.
//!
//! `recdb-serve serve [--addr A] [--data-dir DIR]` opens (or recovers)
//! the engine in `DIR` and serves it on `A` until the process is killed.
//! The wire load generator is `benchmark/`; the fault-injected soak is a
//! test in `tests/server.rs`.

use recdb_core::{RecDb, RecDbConfig};
use recdb_server::{Server, ServerConfig};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("serve") => serve(&args[1..]),
        _ => {
            eprintln!("usage: recdb-serve serve --addr 127.0.0.1:5433 --data-dir ./recdb-data");
            2
        }
    };
    std::process::exit(code);
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn serve(args: &[String]) -> i32 {
    let addr = flag(args, "--addr").unwrap_or_else(|| "127.0.0.1:5433".into());
    let data_dir = flag(args, "--data-dir").unwrap_or_else(|| "./recdb-data".into());
    let config = RecDbConfig {
        data_dir: Some(data_dir.clone().into()),
        ..RecDbConfig::default()
    };
    let db = match RecDb::open_with_config(config) {
        Ok(db) => Arc::new(db),
        Err(e) => {
            eprintln!("failed to open engine at {data_dir}: {e}");
            return 1;
        }
    };
    let server = match Server::start(
        db,
        ServerConfig {
            addr,
            ..ServerConfig::default()
        },
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("failed to bind: {e}");
            return 1;
        }
    };
    println!(
        "recdb-serve listening on {} (data: {data_dir})",
        server.addr()
    );
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}
