//! Property tests for the b"FRCK" checkpoint codec, mirroring the
//! FRRO/FRDM robustness style: round-trip over arbitrary layouts, and
//! every truncation / bit flip / version skew surfaces as a typed
//! [`FtError`] — never a panic.

use std::sync::Arc;

use freeride::{CombineOp, GroupSpec, RObjLayout, ReductionObject};
use freeride_dist::{Checkpoint, FtError};
use proptest::prelude::*;

fn arb_op() -> impl Strategy<Value = CombineOp> {
    prop_oneof![
        Just(CombineOp::Sum),
        Just(CombineOp::Min),
        Just(CombineOp::Max),
        Just(CombineOp::Product),
    ]
}

fn arb_layout() -> impl Strategy<Value = Arc<RObjLayout>> {
    proptest::collection::vec((1usize..9, arb_op(), -4.0f64..4.0), 1..5).prop_map(|specs| {
        RObjLayout::new(
            specs
                .into_iter()
                .enumerate()
                .map(|(i, (len, op, init))| {
                    GroupSpec::new(&format!("g{i}"), len, op).with_identity(init)
                })
                .collect(),
        )
    })
}

fn arb_checkpoint() -> impl Strategy<Value = Checkpoint> {
    (
        arb_layout(),
        0u64..1000,
        0u32..50,
        proptest::collection::vec(-100.0f64..100.0, 0..12),
        proptest::collection::vec((0u64..10_000, 1u64..5_000), 0..5),
    )
        .prop_map(|(layout, seed, round, state, shards)| {
            let mut robj = ReductionObject::alloc(layout);
            let n = robj.cells().len();
            for i in 0..n {
                let v = ((seed.wrapping_mul(i as u64 + 1) % 97) as f64) - 48.0;
                let (g, idx) = robj.layout().cell_of(i);
                robj.set(g, idx, v);
            }
            Checkpoint {
                task: format!("task{}", seed % 7),
                job: format!("job{}", seed % 3),
                params: vec![seed as i64, round as i64],
                round,
                rounds_total: round + 1 + (seed % 5) as u32,
                state,
                shards,
                robj,
            }
        })
}

fn typed(err: FtError, context: &str) {
    match err {
        FtError::Codec { .. } | FtError::Corrupt { .. } => {}
        other => panic!("{context}: expected Codec or Corrupt, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prop_round_trip(ckpt in arb_checkpoint()) {
        let back = Checkpoint::decode(&ckpt.encode().unwrap()).unwrap();
        prop_assert_eq!(back.task, ckpt.task);
        prop_assert_eq!(back.job, ckpt.job);
        prop_assert_eq!(back.params, ckpt.params);
        prop_assert_eq!(back.round, ckpt.round);
        prop_assert_eq!(back.rounds_total, ckpt.rounds_total);
        prop_assert_eq!(back.state, ckpt.state);
        prop_assert_eq!(back.shards, ckpt.shards);
        prop_assert_eq!(back.robj.cells(), ckpt.robj.cells());
    }

    #[test]
    fn prop_truncation_never_ok(ckpt in arb_checkpoint(), cut in 0usize..4096) {
        let full = ckpt.encode().unwrap();
        let cut = cut % full.len();
        typed(
            Checkpoint::decode(&full[..cut]).unwrap_err(),
            &format!("cut at {cut}/{}", full.len()),
        );
    }

    #[test]
    fn prop_bit_flip_detected(ckpt in arb_checkpoint(), pos in 0usize..4096, bit in 0u32..8) {
        let mut frame = ckpt.encode().unwrap();
        let pos = pos % frame.len();
        frame[pos] ^= 1 << bit;
        // A flipped bit anywhere — header, lengths, f64 payload, nested
        // snapshot, trailer — must surface as a typed error.
        let err = Checkpoint::decode(&frame).unwrap_err();
        match err {
            FtError::Codec { .. } | FtError::Corrupt { .. } => {}
            other => panic!("flip {pos}.{bit}: {other:?}"),
        }
    }

    #[test]
    fn prop_version_skew_rejected(ckpt in arb_checkpoint(), v in 0u16..100) {
        let v = if v == freeride_dist::CKPT_VERSION { v + 1 } else { v };
        let mut frame = ckpt.encode().unwrap();
        frame[4..6].copy_from_slice(&v.to_le_bytes());
        let err = Checkpoint::decode(&frame).unwrap_err();
        prop_assert!(err.to_string().contains("version"), "{}", err);
    }

    #[test]
    fn prop_byte_soup_never_panics(bytes in proptest::collection::vec(0u8..=255, 0..256)) {
        let _ = Checkpoint::decode(&bytes);
    }
}
