//! Property tests for the elastic planner: whatever the shard map,
//! grain and membership, the planned queues, read in node order, are
//! exactly the split of the shard map — no unit lost, duplicated,
//! reshaped or taken out of row order.
//! That cover-exactly property is what the coordinator's
//! first_row-sorted merge leans on for bit-identity.

use proptest::prelude::*;

use freeride_dist::{plan, split_units};

fn arb_shard_map() -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec(1u64..40, 1..6).prop_map(|lens| {
        let mut at = 0u64;
        lens.iter()
            .map(|&rows| {
                let shard = (at, rows);
                at += rows;
                shard
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn plan_covers_units_exactly_once(
        map in arb_shard_map(),
        grain in 0u64..13,
        nodes in 1usize..5,
    ) {
        let units = split_units(&map, grain);
        let queues = plan(&units, nodes);
        prop_assert_eq!(queues.len(), nodes);
        prop_assert_eq!(queues.concat(), units);
    }

    #[test]
    fn split_partitions_rows_exactly(map in arb_shard_map(), grain in 0u64..13) {
        let units = split_units(&map, grain);
        let total: u64 = map.iter().map(|&(_, rows)| rows).sum();
        let mut at = 0u64;
        for u in &units {
            prop_assert_eq!(u.first_row, at);
            prop_assert!(u.rows > 0);
            at += u.rows;
        }
        prop_assert_eq!(at, total);
    }
}
