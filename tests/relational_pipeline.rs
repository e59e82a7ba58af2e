//! Cross-crate relational pipeline: emrel operators over emsort machinery,
//! indexed by emtree — an end-to-end "mini warehouse" query checked against
//! an in-memory reference.

use em_core::hash::Draws;
use em_core::{EmConfig, ExtVec};
use emrel::{collect, sort_pipe, sort_scan, ExecConfig, GroupByExec, KeyId, MergeJoinExec, Order};
use emtree::BTree;
use pdm::{BufferPool, EvictionPolicy};
use std::collections::BTreeMap;

/// Orders (order_id, customer_id, amount) joined to customers
/// (customer_id, region), aggregated per region, indexed, and queried.
#[test]
fn star_join_group_by_index() {
    let cfg = EmConfig::new(512, 16);
    let device = cfg.ram_disk();
    let ec = ExecConfig::new(cfg.mem_records::<u64>());
    let mut rng = Draws::new(4001);

    let n_orders = 20_000u64;
    let n_customers = 1_000u64;
    let n_regions = 50u64;

    let orders: Vec<(u64, u64, u64)> = (0..n_orders)
        .map(|id| (id, rng.below(n_customers), 1 + rng.below(999)))
        .collect();
    let customers: Vec<(u64, u64)> = (0..n_customers)
        .map(|id| (id, rng.below(n_regions)))
        .collect();

    let orders_v = ExtVec::from_slice(device.clone(), &orders).unwrap();
    let customers_v = ExtVec::from_slice(device.clone(), &customers).unwrap();

    // Join: (region, amount) per order, sorted by region and summed per
    // region.  Neither sorted join input nor the join's output is ever
    // written out: each sort's final merge streams into its consumer.
    const CUSTOMER: KeyId = 1;
    const REGION: KeyId = 2;
    let mut joined = 0u64;
    let revenue = sort_scan(
        &orders_v,
        Order::Unordered,
        &ec,
        CUSTOMER,
        |a: &(u64, u64, u64), b: &(u64, u64, u64)| a.1 < b.1,
        |os| {
            sort_scan(
                &customers_v,
                Order::Unordered,
                &ec,
                CUSTOMER,
                |a: &(u64, u64), b: &(u64, u64)| a.0 < b.0,
                |cs| {
                    let mut join = MergeJoinExec::new(
                        os,
                        cs,
                        |o: &(u64, u64, u64)| o.1,
                        |c: &(u64, u64)| c.0,
                        |o: &(u64, u64, u64), c: &(u64, u64)| (c.1, o.2),
                        ec.sort.mem_records,
                    );
                    sort_pipe(
                        &mut join,
                        &device,
                        &ec,
                        REGION,
                        |a: &(u64, u64), b: &(u64, u64)| a.0 < b.0,
                        |js| {
                            let mut g = GroupByExec::new(
                                js,
                                |r: &(u64, u64)| r.0,
                                0u64,
                                |acc, r: &(u64, u64)| *acc += r.1,
                                |region, total, n| {
                                    joined += n;
                                    (region, total)
                                },
                                Order::Key(REGION),
                            );
                            collect(&mut g, &device)
                        },
                    )
                },
            )
        },
    )
    .unwrap();
    assert_eq!(joined, n_orders, "every order has exactly one customer");

    // Reference.
    let cust_region: BTreeMap<u64, u64> = customers.iter().copied().collect();
    let mut expect: BTreeMap<u64, u64> = BTreeMap::new();
    for &(_, cid, amount) in &orders {
        *expect.entry(cust_region[&cid]).or_default() += amount;
    }
    let expect: Vec<(u64, u64)> = expect.into_iter().collect();
    assert_eq!(revenue.to_vec().unwrap(), expect);

    // Index the aggregate in a B-tree and query a band of regions.
    let pool = BufferPool::new(device, 8, EvictionPolicy::Lru);
    let mut reader = revenue.reader();
    let rows = std::iter::from_fn(move || reader.try_next().unwrap());
    let tree: BTree<u64, u64> = BTree::bulk_load(pool, rows).unwrap();
    let band = tree.range(&10, &19).unwrap();
    let expect_band: Vec<(u64, u64)> = expect
        .iter()
        .copied()
        .filter(|&(r, _)| (10..=19).contains(&r))
        .collect();
    assert_eq!(band, expect_band);
}
