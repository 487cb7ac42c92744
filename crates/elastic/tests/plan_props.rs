//! Property tests for the elastic planner: whatever the shard map,
//! grain, membership and weights, the planned unit set is exactly the
//! split of the shard map — no unit lost, duplicated or reshaped.
//! That cover-exactly property is what the coordinator's
//! first_row-sorted merge leans on for bit-identity.

use proptest::prelude::*;

use cfr_elastic::{plan, split_units, PlacementPolicy, WorkUnit};

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

fn arb_policy() -> impl Strategy<Value = PlacementPolicy> {
    proptest::collection::vec(-1.0f64..4.0, 0..5).prop_map(|weights| PlacementPolicy { weights })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn plan_covers_units_exactly_once(
        map in arb_shard_map(),
        grain in 0u64..13,
        nodes in 1usize..5,
        policy in arb_policy(),
    ) {
        let units = split_units(&map, grain);
        let live: Vec<u32> = (0..nodes as u32).collect();
        let queues = plan(&units, &live, &policy);
        prop_assert_eq!(queues.len(), nodes);
        let mut all: Vec<WorkUnit> = queues.into_iter().flatten().collect();
        all.sort_unstable();
        prop_assert_eq!(all, units);
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
