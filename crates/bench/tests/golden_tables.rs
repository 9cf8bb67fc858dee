//! Golden neighborhood tables: the item and user tables built from the
//! synthetic MovieLens and LDOS-CoMoDa worlds must hash to the values
//! recorded when the row product still kept a counted 48-byte slot per
//! partner for both measures and tested every term for presence. The
//! hash is FNV-1a over every `(entity, neighbor, sim bits)` of the
//! forward lists, then over every `(entity, neighbor, sim bits)` of the
//! reverse lists, so one differing bit in any sim changes it.
//!
//! Beside the tables, each world pins what is built from the ratings
//! matrix itself, hashed the same way: both CSR orientations (`row_ptr`,
//! column indexes, value bits), the global mean, every Popularity score,
//! the SVD factors after training at one thread, and one whole-domain
//! scoring pass (`score_unseen_into`) for ten users under each CF model.
//!
//! The kernel finds a row's partners one of two ways, chosen by the row's
//! term count (see `recdb_algo::neighborhood`): MovieLens is a world where
//! every row scans its slots, LDOS-CoMoDa one where most item rows keep a
//! list of touched partners, and the test checks that this is so. Debug
//! builds hash MovieLens scaled to half its ratings; `cargo test
//! --release` also hashes the full world.

use recdb_algo::model::{NeighborhoodKnobs, TrainConfig};
use recdb_algo::neighborhood::{build_item_neighborhood, build_user_neighborhood};
use recdb_algo::{
    Algorithm, Csr, NeighborhoodParams, NeighborhoodTable, PopularityModel, RatingsMatrix,
    RecModel, ScoreScratch, Similarity, SvdModel, SvdParams,
};
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

/// Hashes in [`model_hashes`] order.
const LDOS_MODELS: [u64; 9] = [
    0x3839_a35f_10c9_13a7,
    0x4549_fb6b_6767_fe2f,
    0x4008_23a9_f5f8_32d2,
    0x7185_8ed2_5e0c_c48a,
    0x75c5_6bfd_e99f_ab49,
    0xa4d2_b99e_2edd_a700,
    0x2ca4_36ac_42f4_8258,
    0x046f_60ea_5b00_c0d2,
    0xf797_6522_1b77_b582,
];
const MOVIELENS_HALF_MODELS: [u64; 9] = [
    0xff80_b661_cccf_898a,
    0x7988_4788_36c3_1e53,
    0x4008_d820_1cd5_f99c,
    0x75c7_f029_24ec_1f50,
    0x9b5b_8e93_8802_a364,
    0xf701_ccd8_2989_bc0d,
    0xdaca_8598_aeca_67bd,
    0xd49b_6971_96a4_d16b,
    0x54ac_4034_c5a3_858e,
];
const MOVIELENS_MODELS: [u64; 9] = [
    0xa8f6_3117_6aa9_5973,
    0x2241_de2d_3afa_587f,
    0x4008_d22d_0e56_0419,
    0xde51_393a_da5d_36bc,
    0x6224_3d2d_71c4_085c,
    0x376c_cde0_7441_b9be,
    0x2e4e_ae47_ac48_b136,
    0xbfdd_ffaa_2361_022d,
    0xe065_6055_ccc0_7d23,
];

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(hash: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn table_hash(table: &NeighborhoodTable) -> u64 {
    let mut h = FNV_OFFSET;
    for (e, nb, sim) in table.forward().iter() {
        h = [u64::from(e), u64::from(nb), sim.to_bits()]
            .into_iter()
            .fold(h, fnv1a);
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

fn csr_hash(csr: &Csr<f32>) -> u64 {
    let mut h = csr
        .row_ptr()
        .iter()
        .map(|&p| p as u64)
        .fold(FNV_OFFSET, fnv1a);
    for r in 0..csr.n_rows() {
        let (cols, vals) = csr.row(r);
        for (&c, v) in cols.iter().zip(vals) {
            h = [u64::from(c), u64::from(v.to_bits())]
                .into_iter()
                .fold(h, fnv1a);
        }
    }
    h
}

/// What the ratings matrix feeds besides the tables: user CSR, item CSR,
/// global mean, Popularity scores, SVD factors, then one scoring pass for
/// ten users under ItemCosCF, ItemPearCF, UserCosCF and UserPearCF.
fn model_hashes(m: &RatingsMatrix) -> Vec<u64> {
    let mut hashes = vec![
        csr_hash(m.user_csr()),
        csr_hash(m.item_csr()),
        m.global_mean().to_bits(),
    ];
    let items: Vec<usize> = (0..m.n_items()).collect();
    let mut scores = Vec::new();
    PopularityModel::train(m.clone()).predict_items_into(&items, &mut scores);
    hashes.push(
        scores
            .iter()
            .map(|s| s.expect("popularity always scores").to_bits())
            .fold(FNV_OFFSET, fnv1a),
    );
    let svd_params = SvdParams {
        epochs: 5,
        threads: 1,
        ..SvdParams::default()
    };
    let svd = SvdModel::train(m.clone(), svd_params);
    let user_factors = (0..m.n_users()).flat_map(|u| svd.user_vector(u));
    let item_factors = (0..m.n_items()).flat_map(|i| svd.item_vector(i));
    hashes.push(
        user_factors
            .chain(item_factors)
            .map(|x| u64::from(x.to_bits()))
            .fold(FNV_OFFSET, fnv1a),
    );
    let config = TrainConfig {
        neighborhood: NeighborhoodKnobs {
            threads: 1,
            ..NeighborhoodKnobs::default()
        },
        ..TrainConfig::default()
    };
    let mut scratch = ScoreScratch::default();
    let mut batch = Vec::new();
    for algo in Algorithm::ALL
        .into_iter()
        .filter(Algorithm::is_neighborhood)
    {
        let model = RecModel::train(algo, m.clone(), &config);
        let mut h = FNV_OFFSET;
        for u in (0..10).map(|k| k * m.n_users() / 10) {
            batch.clear();
            model.score_unseen_into(u, &mut scratch, &mut batch);
            for &(i, s) in &batch {
                h = [u as u64, i as u64, s.to_bits()].into_iter().fold(h, fnv1a);
            }
        }
        hashes.push(h);
    }
    hashes
}

/// Rows of `entities` whose term count `Σ_{u ∈ row} |raters.row(u)|`
/// reaches the number of entities: the rows that scan their slots.
fn scanning_rows(entities: &Csr<f32>, raters: &Csr<f32>) -> usize {
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

fn assert_golden(spec: &SyntheticSpec, golden: &[u64; 8], models: &[u64; 9]) -> RatingsMatrix {
    let m = matrix(spec);
    let got = model_hashes(&m);
    let names = [
        "user CSR",
        "item CSR",
        "global mean",
        "Popularity",
        "SVD",
        "ItemCosCF pass",
        "ItemPearCF pass",
        "UserCosCF pass",
        "UserPearCF pass",
    ];
    for ((got, want), name) in got.iter().zip(models).zip(names) {
        assert_eq!(
            got, want,
            "{} {name}: {got:#018x} vs {want:#018x}",
            spec.name
        );
    }
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
    let m = assert_golden(&SyntheticSpec::ldos_comoda(), &LDOS, &LDOS_MODELS);
    assert_eq!(m.n_items(), 612);
    assert_eq!(scanning_rows(m.item_csr(), m.user_csr()), 16);
}

/// MovieLens: every row of both tables scans; release builds check the
/// full world too.
#[test]
fn movielens_tables_match_the_golden_hashes() {
    let mut worlds = vec![(
        SyntheticSpec::movielens().scaled(0.5),
        MOVIELENS_HALF,
        MOVIELENS_HALF_MODELS,
    )];
    if !cfg!(debug_assertions) {
        worlds.push((SyntheticSpec::movielens(), MOVIELENS, MOVIELENS_MODELS));
    }
    for (spec, golden, models) in worlds {
        let m = assert_golden(&spec, &golden, &models);
        assert_eq!(scanning_rows(m.item_csr(), m.user_csr()), m.n_items());
        assert_eq!(scanning_rows(m.user_csr(), m.item_csr()), m.n_users());
    }
}
