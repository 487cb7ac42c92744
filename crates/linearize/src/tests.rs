//! Cross-module property tests for the linearize crate.
//!
//! The central invariant, checked over randomly generated nested shapes:
//! any access through Algorithm 3 (`compute_index`) on the linearized
//! buffer yields exactly the value reached by walking the nested value.

use proptest::prelude::*;

use crate::{
    compute_index, compute_linearize_size, delinearize, linearize_it, AccessPath, Linearizer,
    Shape, Value,
};

/// Generate a random "paper-style" nested shape: `levels` array levels,
/// each separated by a record with the array field at a random position
/// among scalar padding fields. Returns the shape plus the access path
/// reaching the innermost real elements.
fn arb_nested_shape() -> impl Strategy<Value = (Shape, AccessPath, Vec<usize>)> {
    // (lens per level, field position per boundary, pad fields before)
    (1usize..=3)
        .prop_flat_map(|levels| {
            let lens = proptest::collection::vec(1usize..=6, levels);
            let pads = proptest::collection::vec(0usize..=2, levels.saturating_sub(1));
            (Just(levels), lens, pads)
        })
        .prop_map(|(levels, lens, pads)| {
            // Build inside-out: innermost is a real array.
            let mut shape = Shape::array(Shape::Real, lens[levels - 1]);
            let mut fields_chain: Vec<usize> = Vec::new();
            for b in (0..levels - 1).rev() {
                let pad = pads[b];
                let mut fields: Vec<(&str, Shape)> = Vec::new();
                for _ in 0..pad {
                    fields.push(("pad", Shape::Int));
                }
                fields.push(("payload", shape));
                fields.push(("tail", Shape::Real));
                let rec = Shape::Record {
                    fields: fields
                        .into_iter()
                        .enumerate()
                        .map(|(i, (n, s))| (format!("{n}{i}"), s))
                        .collect(),
                };
                fields_chain.push(pad); // payload sits after `pad` scalars
                shape = Shape::array(rec, lens[b]);
            }
            fields_chain.reverse();
            let path = AccessPath::fields(&fields_chain);
            (shape, path, lens)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Algorithm 1 agrees with the shape-derived slot count.
    #[test]
    fn alg1_matches_shape((shape, _path, _lens) in arb_nested_shape()) {
        let v = Value::zero(&shape);
        prop_assert_eq!(compute_linearize_size(&v), shape.slot_count());
    }

    /// Algorithm 2 (free function) and the Linearizer produce identical
    /// buffers, and delinearization roundtrips all-real payloads.
    #[test]
    fn alg2_and_linearizer_agree((shape, _path, _lens) in arb_nested_shape()) {
        let v = Value::from_fn(&shape, |i| i as f64 * 0.5);
        let free = linearize_it(&v);
        let lin = Linearizer::new(&shape).linearize(&v).unwrap();
        prop_assert_eq!(&free, &lin.buffer);
        // Roundtrip: delinearize then re-linearize must be identical
        // (int slots were already truncated by from_fn's i64 cast).
        let back = delinearize(&lin.buffer, &shape).unwrap();
        let relin = Linearizer::new(&shape).linearize(&back).unwrap();
        prop_assert_eq!(lin.buffer, relin.buffer);
    }

    /// compute_index addresses exactly the slot the nested walk reaches,
    /// for every valid multi-index.
    #[test]
    #[allow(unreachable_code)] // the odometer loop exits via `return`
    fn mapping_matches_nested_walk((shape, path, lens) in arb_nested_shape()) {
        let v = Value::from_fn(&shape, |i| (i as f64) + 0.25);
        let lin = Linearizer::new(&shape).linearize(&v).unwrap();
        let pm = lin.meta.for_path(&path).unwrap();
        prop_assert_eq!(pm.levels, lens.len());

        // Enumerate all multi-indices.
        let mut idx = vec![0usize; lens.len()];
        loop {
            // Nested walk.
            let mut cur = &v;
            for (lvl, &i) in idx.iter().enumerate() {
                cur = cur.index(i).unwrap();
                if lvl < lens.len() - 1 {
                    for &f in &path.chains[lvl] {
                        cur = cur.field(f).unwrap();
                    }
                }
            }
            let direct = cur.as_f64().unwrap();

            let flat = lin.buffer[compute_index(&pm, &idx)];
            prop_assert_eq!(direct, flat, "idx {:?}", idx);

            // Advance odometer.
            let mut l = idx.len();
            loop {
                if l == 0 { return Ok(()); }
                l -= 1;
                idx[l] += 1;
                if idx[l] < lens[l] { break; }
                idx[l] = 0;
            }
        }
    }

    /// Linearization is injective on slot positions: writing a unique
    /// marker through the mapping and delinearizing recovers it at the
    /// nested position.
    #[test]
    fn mapping_is_writable((shape, path, lens) in arb_nested_shape()) {
        let lin = Linearizer::new(&shape).linearize(&Value::zero(&shape)).unwrap();
        let pm = lin.meta.for_path(&path).unwrap();
        let mut buf = lin.buffer.clone();
        let idx: Vec<usize> = lens.iter().map(|&l| l - 1).collect();
        let off = compute_index(&pm, &idx);
        buf[off] = 777.0;
        let back = delinearize(&buf, &shape).unwrap();
        let mut cur = &back;
        for (lvl, &i) in idx.iter().enumerate() {
            cur = cur.index(i).unwrap();
            if lvl < lens.len() - 1 {
                for &f in &path.chains[lvl] {
                    cur = cur.field(f).unwrap();
                }
            }
        }
        prop_assert_eq!(cur.as_f64(), Some(777.0));
    }
}

#[test]
fn distinct_indices_map_to_distinct_offsets() {
    // Determinism/injectivity smoke test on the Figure 6 structure.
    let a = Shape::record(vec![
        ("a1", Shape::array(Shape::Real, 3)),
        ("a2", Shape::Int),
    ]);
    let b = Shape::record(vec![("b1", Shape::array(a, 4)), ("b2", Shape::Int)]);
    let shape = Shape::array(b, 5);
    let pm = crate::LinearMeta::new(&shape)
        .for_path(&AccessPath::fields(&[0, 0]))
        .unwrap();
    let mut seen = std::collections::HashSet::new();
    for i in 0..5 {
        for j in 0..4 {
            for k in 0..3 {
                assert!(seen.insert(compute_index(&pm, &[i, j, k])));
            }
        }
    }
    assert_eq!(seen.len(), 60);
}
