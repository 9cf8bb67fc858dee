//! Golden neighborhood tables: the item and user tables built from the
//! synthetic MovieLens and LDOS-CoMoDa worlds must hash to the values
//! recorded when the row product still kept a counted 48-byte slot per
//! partner for both measures and tested every term for presence. The
//! hash is FNV-1a over every `(entity, neighbor, sim bits)` of the
//! forward lists, then over every `(entity, neighbor, sim bits)` of the
//! reverse lists, so one differing bit in any sim changes it.
//!
//! The kernel finds a row's partners one of two ways, chosen by the row's
//! term count (see `recdb_algo::neighborhood`): MovieLens is a world where
//! every row scans its slots, LDOS-CoMoDa one where most item rows keep a
//! list of touched partners, and the test checks that this is so. Debug
//! builds hash MovieLens scaled to half its ratings; `cargo test
//! --release` also hashes the full world.

use recdb_algo::neighborhood::{build_item_neighborhood, build_user_neighborhood};
use recdb_algo::{Csr, NeighborhoodParams, NeighborhoodTable, RatingsMatrix, Similarity};
use recdb_datasets::SyntheticSpec;

/// Hashes in [`world_hashes`] order.
const LDOS: [u64; 8] = [
    0x8030_926b_a5ff_c0d5,
    0xf4b8_1677_be2a_0005,
    0x971c_3c0f_186d_0575,
    0xe800_1807_b404_556d,
    0x7748_effa_bcb6_410d,
    0x9d6c_1f3d_d7e4_0ac5,
    0xe33c_8184_dc9f_e7b1,
    0xbddd_c32f_fb9f_718d,
];
const MOVIELENS_HALF: [u64; 8] = [
    0x5c32_6439_00b5_1ab1,
    0xde26_9eeb_0657_87cd,
    0xf8a8_26d2_cdbe_23f1,
    0x62ba_2968_f80a_824d,
    0x3331_2810_5ebd_a61d,
    0x6a90_e67d_1e25_48bd,
    0x779e_40ed_0d90_8765,
    0x836c_e223_64f3_e105,
];
const MOVIELENS: [u64; 8] = [
    0x32b7_23d2_5c3c_9315,
    0x6b35_56f0_ddd8_2445,
    0xc84d_7be4_b0a0_bf9d,
    0x477d_58ad_4d03_f225,
    0xf971_8f53_ae72_0fa5,
    0x4704_9bab_0c88_7a25,
    0x8d1e_b3b3_74e6_8435,
    0x05af_d8e6_887e_c1bd,
];

fn fnv1a(hash: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn table_hash(table: &NeighborhoodTable) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for e in 0..table.len() {
        for &(nb, sim) in table.neighbors(e) {
            h = [e as u64, nb as u64, sim.to_bits()]
                .into_iter()
                .fold(h, fnv1a);
        }
    }
    for l in 0..table.len() {
        let (entities, sims) = table.reverse(l);
        for (&e, sim) in entities.iter().zip(sims) {
            h = [l as u64, u64::from(e), sim.to_bits()]
                .into_iter()
                .fold(h, fnv1a);
        }
    }
    h
}

/// Rows of `entities` whose term count `Σ_{u ∈ row} |raters.row(u)|`
/// reaches the number of entities: the rows that scan their slots.
fn scanning_rows(entities: &Csr, raters: &Csr) -> usize {
    let n = entities.n_rows();
    (0..n)
        .filter(|&a| {
            let terms: usize = entities
                .row(a)
                .0
                .iter()
                .map(|&u| raters.row_range(u as usize).len())
                .sum();
            terms >= n
        })
        .count()
}

fn matrix(spec: &SyntheticSpec) -> RatingsMatrix {
    RatingsMatrix::from_ratings(recdb_datasets::generate(spec).algo_ratings())
}

/// The eight tables of one world: (item, user) × (Cosine, Pearson) ×
/// (`max_neighbors` 64, none), each built at one and two threads, which
/// must agree.
fn world_hashes(m: &RatingsMatrix) -> Vec<u64> {
    let mut hashes = Vec::new();
    for item_table in [true, false] {
        for measure in [Similarity::Cosine, Similarity::Pearson] {
            for max_neighbors in [Some(64), None] {
                let hash = |threads| {
                    let params = NeighborhoodParams {
                        measure,
                        max_neighbors,
                        min_abs_sim: 0.0,
                        threads,
                    };
                    table_hash(&if item_table {
                        build_item_neighborhood(m, &params)
                    } else {
                        build_user_neighborhood(m, &params)
                    })
                };
                let serial = hash(1);
                assert_eq!(
                    hash(2),
                    serial,
                    "item table {item_table}, {measure:?}, k {max_neighbors:?}: threads 1 vs 2"
                );
                hashes.push(serial);
            }
        }
    }
    hashes
}

fn assert_golden(spec: &SyntheticSpec, golden: &[u64; 8]) -> RatingsMatrix {
    let m = matrix(spec);
    let got = world_hashes(&m);
    let case = |k: usize| {
        format!(
            "{} {} {} k {}",
            spec.name,
            ["item", "user"][k / 4],
            ["Cosine", "Pearson"][k / 2 % 2],
            ["64", "none"][k % 2]
        )
    };
    for (k, (got, want)) in got.iter().zip(golden).enumerate() {
        assert_eq!(got, want, "{}: {got:#018x} vs {want:#018x}", case(k));
    }
    m
}

/// LDOS-CoMoDa: 596 of 612 item rows find their partners through the
/// touched list.
#[test]
fn ldos_tables_match_the_golden_hashes() {
    let m = assert_golden(&SyntheticSpec::ldos_comoda(), &LDOS);
    assert_eq!(m.n_items(), 612);
    assert_eq!(scanning_rows(m.item_csr(), m.user_csr()), 16);
}

/// MovieLens: every row of both tables scans; release builds check the
/// full world too.
#[test]
fn movielens_tables_match_the_golden_hashes() {
    let mut worlds = vec![(SyntheticSpec::movielens().scaled(0.5), MOVIELENS_HALF)];
    if !cfg!(debug_assertions) {
        worlds.push((SyntheticSpec::movielens(), MOVIELENS));
    }
    for (spec, golden) in worlds {
        let m = assert_golden(&spec, &golden);
        assert_eq!(scanning_rows(m.item_csr(), m.user_csr()), m.n_items());
        assert_eq!(scanning_rows(m.user_csr(), m.item_csr()), m.n_users());
    }
}
