//! Property-based tests for the storage substrate: the binary tuple
//! format, the slotted page, the heap, and the B-tree index are each
//! checked against simple reference models.

use proptest::prelude::*;
use recdb_storage::btree::successor;
use recdb_storage::{
    BTree, BufferPool, Catalog, Column, DataType, HeapTable, Page, RangeCursor, Rid, RowRef,
    Schema, StorageError, Tuple, Value,
};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::Arc;

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        (-1e12f64..1e12).prop_map(Value::Float),
        "[ -~]{0,40}".prop_map(Value::Text),
        any::<bool>().prop_map(Value::Bool),
        (-1e6f64..1e6, -1e6f64..1e6).prop_map(|(x, y)| Value::Point(x, y)),
        (-1e6f64..1e6, -1e6f64..1e6, -1e6f64..1e6, -1e6f64..1e6)
            .prop_map(|(a, b, c, d)| Value::Rect(a, b, c, d)),
    ]
}

fn tuple_strategy() -> impl Strategy<Value = Tuple> {
    proptest::collection::vec(value_strategy(), 0..8).prop_map(Tuple::new)
}

proptest! {
    /// Binary encode → decode is the identity, and the encoded size is
    /// exactly what `encoded_size` predicts.
    #[test]
    fn tuple_roundtrip(tuple in tuple_strategy()) {
        let mut buf = Vec::new();
        tuple.encode_into(&mut buf);
        prop_assert_eq!(buf.len(), tuple.encoded_size());
        let (decoded, used) = Tuple::decode(&buf).unwrap();
        prop_assert_eq!(used, buf.len());
        prop_assert_eq!(decoded, tuple);
    }

    /// Decoding any strict prefix of an encoding fails cleanly (no panic,
    /// no garbage tuple) — unless the prefix happens to be a valid
    /// encoding of a shorter arity, which the length header prevents.
    #[test]
    fn tuple_truncation_never_panics(tuple in tuple_strategy(), cut_frac in 0.0f64..1.0) {
        let mut buf = Vec::new();
        tuple.encode_into(&mut buf);
        let cut = ((buf.len() as f64) * cut_frac) as usize;
        if cut < buf.len() {
            prop_assert!(Tuple::decode(&buf[..cut]).is_err());
        }
    }

    /// Reading one column in place agrees with decoding the whole tuple,
    /// for every column; an ordinal past the arity is `Corrupt`.
    #[test]
    fn row_ref_column_matches_decode(tuple in tuple_strategy()) {
        let mut buf = Vec::new();
        tuple.encode_into(&mut buf);
        let row = RowRef::new(&buf);
        for (i, want) in tuple.values().iter().enumerate() {
            prop_assert_eq!(&row.column(i).unwrap().to_value(), want, "column {}", i);
        }
        prop_assert!(matches!(row.column(tuple.arity()), Err(StorageError::Corrupt(_))));
        prop_assert_eq!(row.to_tuple().unwrap(), tuple);
    }

    /// Over every strict prefix of an encoding a column read never panics
    /// and never reads past the prefix: it returns the column's value when
    /// the prefix still holds all of it, and `Corrupt` otherwise — always
    /// `Corrupt` for the last column, which ends where the encoding ends.
    #[test]
    fn row_ref_column_over_any_prefix_is_the_value_or_corrupt(tuple in tuple_strategy()) {
        let mut buf = Vec::new();
        tuple.encode_into(&mut buf);
        for cut in 0..buf.len() {
            let row = RowRef::new(&buf[..cut]);
            for (i, want) in tuple.values().iter().enumerate() {
                match row.column(i) {
                    Ok(got) => {
                        prop_assert!(i + 1 < tuple.arity(), "cut {} column {}", cut, i);
                        prop_assert_eq!(&got.to_value(), want, "cut {} column {}", cut, i);
                    }
                    Err(e) => prop_assert!(matches!(e, StorageError::Corrupt(_)), "{:?}", e),
                }
            }
            prop_assert!(matches!(row.to_tuple(), Err(StorageError::Corrupt(_))));
        }
    }

    /// The one value ordering, against the order `value.rs` pins: NULL,
    /// then booleans, numbers (`Int` and `Float` together, numerically),
    /// text, points, rectangles; natural order within a type.
    #[test]
    fn value_ref_total_cmp_is_the_pinned_order(a in value_strategy(), b in value_strategy()) {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) | Value::Float(_) => 2,
                Value::Text(_) => 3,
                Value::Point(..) => 4,
                Value::Rect(..) => 5,
            }
        }
        let floats = |xs: &[f64], ys: &[f64]| {
            xs.iter().zip(ys).map(|(x, y)| x.total_cmp(y)).find(|o| o.is_ne()).unwrap_or(Ordering::Equal)
        };
        let want = match (&a, &b) {
            (Value::Bool(x), Value::Bool(y)) => x.cmp(y),
            (Value::Int(x), Value::Int(y)) => x.cmp(y),
            (Value::Text(x), Value::Text(y)) => x.as_bytes().cmp(y.as_bytes()),
            (Value::Point(x0, x1), Value::Point(y0, y1)) => floats(&[*x0, *x1], &[*y0, *y1]),
            (Value::Rect(x0, x1, x2, x3), Value::Rect(y0, y1, y2, y3)) => {
                floats(&[*x0, *x1, *x2, *x3], &[*y0, *y1, *y2, *y3])
            }
            _ if rank(&a) == 2 && rank(&b) == 2 => {
                floats(&[a.as_f64().unwrap()], &[b.as_f64().unwrap()])
            }
            _ => rank(&a).cmp(&rank(&b)),
        };
        let (ra, rb) = (a.as_value_ref(), b.as_value_ref());
        prop_assert_eq!(ra.total_cmp(rb), want);
        prop_assert_eq!(rb.total_cmp(ra), want.reverse());
        prop_assert_eq!(a.total_cmp(&b), want, "Value delegates");
        let sql_eq = (!a.is_null() && !b.is_null()).then_some(want.is_eq());
        prop_assert_eq!(ra.sql_eq(rb), sql_eq);
    }

    /// A page behaves like an append-only Vec with tombstones.
    #[test]
    fn page_matches_vec_model(
        tuples in proptest::collection::vec(tuple_strategy(), 1..40),
        deletions in proptest::collection::vec(any::<prop::sample::Index>(), 0..10),
    ) {
        let mut page = Page::new();
        let mut model: Vec<Option<Tuple>> = Vec::new();
        for t in &tuples {
            if page.fits(t.encoded_size()) {
                let slot = page.insert(t).unwrap();
                prop_assert_eq!(slot as usize, model.len());
                model.push(Some(t.clone()));
            }
        }
        for idx in &deletions {
            if model.is_empty() { break; }
            let slot = idx.index(model.len());
            if model[slot].is_some() {
                page.delete(slot as u16).unwrap();
                model[slot] = None;
            }
        }
        prop_assert_eq!(page.live_count(), model.iter().flatten().count());
        let live: Vec<(u16, Tuple)> = page.iter_live().collect();
        let expected: Vec<(u16, Tuple)> = model
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.clone().map(|t| (i as u16, t)))
            .collect();
        prop_assert_eq!(&live, &expected);
        let undecoded: Vec<(u16, Tuple)> = page
            .live_rows()
            .map(|(slot, row)| (slot, row.to_tuple().unwrap()))
            .collect();
        prop_assert_eq!(undecoded, expected);
    }

    /// Heap scan returns exactly the inserted-and-not-deleted tuples in
    /// insertion order, across page boundaries.
    #[test]
    fn heap_matches_vec_model(
        rows in proptest::collection::vec((any::<i64>(), -1e9f64..1e9), 1..300),
        deletions in proptest::collection::vec(any::<prop::sample::Index>(), 0..40),
    ) {
        let schema = Schema::new(vec![
            Column::new("k", DataType::Int),
            Column::new("v", DataType::Float),
        ]);
        let mut heap = HeapTable::new(schema);
        let mut rids: Vec<(Rid, Tuple)> = Vec::new();
        for (k, v) in &rows {
            let t = Tuple::new(vec![Value::Int(*k), Value::Float(*v)]);
            let rid = heap.insert(t.clone()).unwrap();
            rids.push((rid, t));
        }
        let mut deleted = std::collections::HashSet::new();
        for idx in &deletions {
            let i = idx.index(rids.len());
            if deleted.insert(i) {
                heap.delete(rids[i].0).unwrap();
            }
        }
        let survivors: Vec<Tuple> = rids
            .iter()
            .enumerate()
            .filter(|(i, _)| !deleted.contains(i))
            .map(|(_, (_, t))| t.clone())
            .collect();
        let scanned: Vec<Tuple> = heap.scan().map(|(_, t)| t).collect();
        prop_assert_eq!(scanned, survivors);
        prop_assert_eq!(heap.tuple_count() as usize, rids.len() - deleted.len());
    }

    /// `HeapTable::visit_run` over a heap in a pool of 2–16 frames, whose
    /// pages are a random mix of absent, clean resident (a point read
    /// faults one in) and dirty resident (a delete dirties one), visits
    /// every page once, in order, with one pool access each, and yields
    /// exactly the rows an unbounded heap holds after the same inserts and
    /// deletes — from memory blocks or a spill file.
    #[test]
    fn visit_run_matches_an_unbounded_heap(
        frames in 2usize..=16,
        spill in any::<bool>(),
        rows in proptest::collection::vec((any::<i64>(), 0usize..120), 1..2500),
        ops in proptest::collection::vec((any::<bool>(), any::<prop::sample::Index>()), 0..60),
    ) {
        static CASE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("recdb-prop-run-{}-{n}", std::process::id()));
        let pool = Arc::new(if spill {
            BufferPool::spilling(frames, &dir)
        } else {
            BufferPool::in_memory(frames)
        });
        let schema = Schema::new(vec![
            Column::new("k", DataType::Int),
            Column::new("pad", DataType::Text),
        ]);
        let mut bounded = HeapTable::with_pool(schema.clone(), Arc::clone(&pool), "t");
        let mut unbounded = HeapTable::new(schema);
        let mut rids = Vec::new();
        for (k, pad) in &rows {
            let t = Tuple::new(vec![Value::Int(*k), Value::Text("p".repeat(*pad))]);
            rids.push(bounded.insert(t.clone()).unwrap());
            unbounded.insert(t).unwrap();
        }
        let mut deleted = std::collections::HashSet::new();
        for (delete, pick) in &ops {
            let rid = rids[pick.index(rids.len())];
            if *delete {
                if deleted.insert(rid) {
                    bounded.delete(rid).unwrap();
                    unbounded.delete(rid).unwrap();
                }
            } else if !deleted.contains(&rid) {
                bounded.get(rid).unwrap();
            }
        }
        let accesses = |pool: &BufferPool| pool.hits() + pool.misses();
        let before = accesses(&pool);
        let (mut pages, mut scanned) = (Vec::new(), Vec::new());
        bounded.visit_all(|page_no, page| {
            pages.push(page_no);
            scanned.extend(page.iter_live().map(|(slot, t)| (Rid::new(page_no, slot), t)));
            Ok::<_, StorageError>(())
        }).unwrap();
        let page_count = bounded.page_count() as u32;
        prop_assert_eq!(pages, (0..page_count).collect::<Vec<_>>());
        prop_assert_eq!(accesses(&pool) - before, page_count as u64);
        prop_assert_eq!(scanned, unbounded.scan().collect::<Vec<_>>());
        prop_assert_eq!(pool.reads_in_flight(), 0);
        drop(bounded);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A secondary index's lookups return exactly the rids a reference
    /// `BTreeMap<Value, Vec<Rid>>` under `Value::total_cmp` holds for the
    /// probe, through random inserts and deletes on a table in a 4-frame
    /// pool, with the index created at a random point (backfill, then
    /// maintenance). Column values come from `index_domain`, so many share
    /// a key prefix and only the lookup's recheck tells them apart; every
    /// value of every type is a probe. The reference filters its entries
    /// rather than calling `get`: above 2^53 a `Float` probe equals two
    /// `Int`s that differ from each other, so no single map key answers it.
    #[test]
    fn index_lookup_matches_the_total_cmp_reference(
        ty in 0usize..6,
        ops in proptest::collection::vec((0u8..4, any::<prop::sample::Index>()), 1..600),
        create_at in any::<prop::sample::Index>(),
    ) {
        let ty = DOMAIN_TYPES[ty];
        let domain = index_domain(ty);
        let mut catalog = Catalog::with_pool(Arc::new(BufferPool::in_memory(4)));
        let schema = Schema::new(vec![Column::new("k", ty), Column::new("pad", DataType::Text)]);
        let t = catalog.create_table("t", schema).unwrap();
        let create_at = create_at.index(ops.len());
        let mut model: BTreeMap<Value, Vec<Rid>> = BTreeMap::new();
        let mut live: Vec<Rid> = Vec::new();
        for (at, &(kind, pick)) in ops.iter().enumerate() {
            if at == create_at {
                t.create_index("i", &["k"]).unwrap();
            }
            if kind == 0 && !live.is_empty() {
                let rid = live.swap_remove(pick.index(live.len()));
                let stored = t.get(rid).unwrap().get(0).unwrap().clone();
                t.delete(rid).unwrap();
                let rids = model.get_mut(&stored).unwrap();
                rids.retain(|&r| r != rid);
                if rids.is_empty() {
                    model.remove(&stored);
                }
            } else {
                let value = domain[pick.index(domain.len())].clone();
                let rid = t.insert(Tuple::new(vec![value, Value::Text("x".repeat(40))])).unwrap();
                let stored = t.get(rid).unwrap().get(0).unwrap().clone();
                model.entry(stored).or_default().push(rid);
                live.push(rid);
            }
        }
        let idx = t.index("i").unwrap();
        prop_assert_eq!(idx.tree().len(), live.len() as u64);
        for probe in DOMAIN_TYPES.iter().flat_map(|&ty| index_domain(ty)) {
            let got: Vec<Rid> = idx.lookup(t.heap(), &probe, || Ok::<_, StorageError>(())).unwrap().into_iter().map(|(rid, _)| rid).collect();
            let mut want: Vec<Rid> = model
                .iter()
                .filter(|(stored, _)| stored.total_cmp(&probe).is_eq())
                .flat_map(|(_, rids)| rids.iter().copied())
                .collect();
            want.sort();
            prop_assert_eq!(got, want, "{:?} column, probe {:?}", ty, probe);
        }
    }

    /// Value total order is transitive-consistent with itself when used
    /// through sort (i.e. sorting never panics and yields a weakly
    /// increasing sequence under `total_cmp`).
    #[test]
    fn value_order_is_sortable(mut values in proptest::collection::vec(value_strategy(), 0..60)) {
        values.sort_by(|a, b| a.total_cmp(b));
        prop_assert!(values
            .windows(2)
            .all(|w| w[0].total_cmp(&w[1]) != std::cmp::Ordering::Greater));
    }

    /// The paged B+-tree agrees with a BTreeSet model through inserts
    /// (runs of one key) and removals (ranges of one key, present or
    /// not) — under a deliberately tiny node capacity (deep trees,
    /// frequent splits) and a 4-frame pool (constant eviction). A key the
    /// tree holds is not inserted again: that panics (the btree unit
    /// tests' `should_panic` cases).
    #[test]
    fn paged_btree_matches_btreeset_model(
        inserts in proptest::collection::vec(any::<u64>(), 1..400),
        removals in proptest::collection::vec(any::<prop::sample::Index>(), 0..80),
    ) {
        let pool = Arc::new(BufferPool::in_memory(4));
        let mut tree = BTree::create(Arc::clone(&pool), "prop_btree", 5).unwrap();
        let mut model = std::collections::BTreeSet::new();
        for &k in &inserts {
            let key = prop_key(k);
            if model.insert(key) {
                tree.insert_run(&[key]).unwrap();
            }
        }
        for r in &removals {
            let key = prop_key(inserts[r.index(inserts.len())]);
            let removed = tree.remove_range(key, successor(key)).unwrap();
            prop_assert_eq!(removed, u64::from(model.remove(&key)));
        }
        prop_assert_eq!(tree.len() as usize, model.len());
        prop_assert_eq!(tree.keys().unwrap(), model.iter().copied().collect::<Vec<_>>());
    }

    /// Range scans over the paged B+-tree return exactly the model's
    /// half-open window `[lo, hi)`, in order.
    #[test]
    fn paged_btree_range_scan_matches_model(
        inserts in proptest::collection::vec(any::<u64>(), 1..300),
        lo in any::<u64>(),
        hi in any::<u64>(),
    ) {
        let pool = Arc::new(BufferPool::in_memory(4));
        let mut tree = BTree::create(Arc::clone(&pool), "prop_btree_range", 6).unwrap();
        let mut model = std::collections::BTreeSet::new();
        for &k in &inserts {
            if model.insert(prop_key(k)) {
                tree.insert_run(&[prop_key(k)]).unwrap();
            }
        }
        // Order the window in *key* space — prop_key deliberately
        // scrambles u64 order to spread inserts across nodes.
        let (lo, hi) = (prop_key(lo), prop_key(hi));
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        let (mut cursor, mut batch, mut got) = (RangeCursor::new(lo, Some(hi)), Vec::new(), Vec::new());
        while tree.next_batch(&mut cursor, &mut batch).unwrap() {
            got.extend_from_slice(&batch);
        }
        let want: Vec<[u8; 24]> = model.range(lo..hi).copied().collect();
        prop_assert_eq!(got, want);
    }

    /// `BTree::next_batch` — the tree's one range walk — hands out exactly
    /// the model's window `[lo, hi)` a leaf at a time: through a run of
    /// emptied leaves left in the chain, for inverted ranges (empty), for
    /// open-ended ones, and for bounds that are stored keys (so `hi`
    /// regularly is the first key of a leaf). No batch exceeds a node and
    /// an exhausted cursor stays exhausted.
    #[test]
    fn paged_btree_next_batch_matches_model(
        inserts in proptest::collection::vec(any::<u64>(), 1..300),
        hollow in (any::<prop::sample::Index>(), 0usize..120),
        lo in (any::<bool>(), any::<prop::sample::Index>(), any::<u64>()),
        hi in proptest::option::of((any::<bool>(), any::<prop::sample::Index>(), any::<u64>())),
    ) {
        const CAPACITY: usize = 6;
        let pool = Arc::new(BufferPool::in_memory(4));
        let mut tree = BTree::create(Arc::clone(&pool), "prop_btree_cursor", CAPACITY).unwrap();
        let mut model = std::collections::BTreeSet::new();
        for &k in &inserts {
            if model.insert(prop_key(k)) {
                tree.insert_run(&[prop_key(k)]).unwrap();
            }
        }
        // A bound is either one of the stored keys or an arbitrary key;
        // chosen before the hollowing so some bounds name removed keys.
        let stored: Vec<[u8; 24]> = model.iter().copied().collect();
        let bound = |(existing, at, raw): (bool, prop::sample::Index, u64)| {
            if existing { stored[at.index(stored.len())] } else { prop_key(raw) }
        };
        let (lo, hi) = (bound(lo), hi.map(bound));
        // Remove a run of adjacent keys: whole leaves empty out but stay
        // chained (deletes never rebalance).
        let start = hollow.0.index(stored.len());
        for key in stored.iter().skip(start).take(hollow.1) {
            prop_assert_eq!(tree.remove_range(*key, successor(*key)).unwrap(), 1);
            model.remove(key);
        }

        let mut cursor = RangeCursor::new(lo, hi);
        let mut batch = Vec::new();
        let mut got = Vec::new();
        while tree.next_batch(&mut cursor, &mut batch).unwrap() {
            prop_assert!(batch.len() <= CAPACITY, "a batch is one leaf");
            got.extend_from_slice(&batch);
        }
        prop_assert!(batch.is_empty());
        prop_assert!(!tree.next_batch(&mut cursor, &mut batch).unwrap(), "exhausted stays exhausted");
        let want: Vec<[u8; 24]> = match hi {
            Some(hi) if hi <= lo => Vec::new(), // BTreeSet::range panics on these
            Some(hi) => model.range(lo..hi).copied().collect(),
            None => model.range(lo..).copied().collect(),
        };
        prop_assert_eq!(got, want);
    }
}

const DOMAIN_TYPES: [DataType; 6] = [
    DataType::Int,
    DataType::Float,
    DataType::Text,
    DataType::Bool,
    DataType::Point,
    DataType::Rect,
];

/// What the index proptest stores in a column of type `ty`, chosen so that
/// many values share a key prefix: texts equal in their first 9 or 17
/// bytes and longer, some with a multi-byte character across those
/// boundaries; integers above 2^53 that share one `f64`; `1` against `1.0`
/// (a `Float` column widens the `Int`); NaN and ±0.0; rectangles equal in
/// their first two coordinates; and NULL in every column.
fn index_domain(ty: DataType) -> Vec<Value> {
    let big = 1i64 << 53;
    let f = Value::Float;
    let mut values = match ty {
        DataType::Int => [0, 1, -1, big, big + 1, big + 2, i64::MIN, i64::MAX]
            .map(Value::Int)
            .to_vec(),
        DataType::Float => vec![
            Value::Int(1),
            f(1.0),
            f(1.5),
            f(0.0),
            f(-0.0),
            f(f64::NAN),
            f(-f64::NAN),
            f(f64::INFINITY),
            f(big as f64),
            Value::Int(big + 1),
        ],
        DataType::Text => [
            "",
            "a",
            "0123456789abcdefg",
            "0123456789abcdefgh",
            "0123456789abcdefgi",
            "0123456789abcdef\u{e8}",
            "0123456789abcdef\u{e9}",
            "0123456789abcdef\u{e9}!",
            "0123456789abcde\u{20ac}",
            "01234567\u{e9}abcdefghij",
            "https://example.com/a",
            "https://example.com/b",
        ]
        .map(|s| Value::Text(s.to_owned()))
        .to_vec(),
        DataType::Bool => vec![Value::Bool(false), Value::Bool(true)],
        DataType::Point => [(0.0, 0.0), (0.0, 1.0), (-0.0, 0.0), (f64::NAN, 1.0)]
            .map(|(x, y)| Value::Point(x, y))
            .to_vec(),
        DataType::Rect => [(0.0, 1.0), (0.0, 2.0), (2.0, 1.0)]
            .map(|(c, d)| Value::Rect(0.0, 0.0, c, d))
            .into_iter()
            .chain([Value::Rect(1.0, 0.0, 0.0, 0.0)])
            .collect(),
    };
    values.push(Value::Null);
    values
}

/// Spread a `u64` across the 24-byte key so adjacent seeds land in
/// different nodes (the low byte varies fastest in the high key bytes).
fn prop_key(k: u64) -> [u8; 24] {
    let mut key = [0u8; 24];
    key[..8].copy_from_slice(&k.rotate_left(32).to_be_bytes());
    key[8..16].copy_from_slice(&k.to_be_bytes());
    key[16..24].copy_from_slice(&(!k).to_be_bytes());
    key
}
