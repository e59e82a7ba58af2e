//! Workload data: every input the benchmark feeds the libraries is a pure
//! function of `--seed`, produced here by splitmix64.  The libraries see
//! only the generated inputs, never the seed.

use std::collections::BTreeMap;

/// `(key, value)` row of the query relations.
pub type Row = (u64, u64);
/// `(key, a, b)` — Q1 aggregates `(key, wrapping sum, count)`, Q3u join
/// rows padded as `(key, value, 0)`.
pub type Grp = (u64, u64, u64);

pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias at these `n` is below 2⁻⁴⁰).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// A stream for one purpose of one run: distinct `salt`s give independent
/// streams from the same `--seed`.
pub fn stream(seed: u64, salt: u64) -> SplitMix64 {
    let mut s = SplitMix64::new(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F));
    s.next_u64();
    s
}

/// `n` uniform `u64` records to sort.
pub fn sort_input(seed: u64, n: usize) -> Vec<u64> {
    let mut s = stream(seed, 1);
    (0..n).map(|_| s.next_u64()).collect()
}

/// Zipf(θ) ranks over `0..n`: rank `r` has weight `1/(r+1)^θ`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, s: &mut SplitMix64) -> usize {
        let u = s.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Q1's predicate: three rows in four survive.
pub fn q1_keep(r: &Row) -> bool {
    !r.1.is_multiple_of(4)
}

/// Q1-lite relation: `rows` rows over `groups` group keys, in no order.
pub fn q1_rows(seed: u64, rows: usize, groups: u64) -> Vec<Row> {
    let mut s = stream(seed, 2);
    (0..rows)
        .map(|_| (s.below(groups), s.next_u64() >> 11))
        .collect()
}

/// Share of orders Q3u's predicate keeps, in percent.
const Q3U_SELECTIVITY: u64 = 15;

/// Q3u's order predicate.  The highest key is always kept so the merge
/// join drains its lineitem side — the cost model prices drained streams.
pub fn q3u_keep_order(key: u64, orders: u64) -> bool {
    key == orders - 1 || (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) % 100 < Q3U_SELECTIVITY
}

/// Q3u relations: `orders` unique order keys and 0–31 lineitem rows per
/// order, both shuffled so neither side has an order to exploit.
pub fn q3u_relations(seed: u64, orders: u64) -> (Vec<Row>, Vec<Row>) {
    let mut s = stream(seed, 3);
    let mut order_rows: Vec<Row> = (0..orders).map(|k| (k, k * 7)).collect();
    let mut lineitem = Vec::new();
    for k in 0..orders {
        for j in 0..s.below(32) {
            lineitem.push((k, k * 1000 + j));
        }
    }
    s.shuffle(&mut order_rows);
    s.shuffle(&mut lineitem);
    (order_rows, lineitem)
}

/// `serve_read`'s dictionary: `n` distinct scattered keys with values
/// derived from the key and the seed.
pub fn read_keys(seed: u64, n: usize) -> Vec<(u64, u64)> {
    let salt = stream(seed, 4).next_u64();
    (0..n as u64)
        .map(|i| {
            // An odd multiplier permutes u64, so keys are distinct.
            let key = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (salt & 0xFFFF);
            (key, key.rotate_left(17) ^ salt)
        })
        .collect()
}

/// Which key (an index into `read_keys`) has which popularity rank: a
/// seeded shuffle, then dealt round-robin over the keys' shards, so that
/// rank 0 and rank 1 — a sixth of all Zipf(0.99) draws between them — never
/// land on one shard.  Without this the hot shard is a coin toss per seed
/// and every latency moves with it.
pub fn popularity_order(seed: u64, shard_of: &[usize]) -> Vec<u32> {
    let mut keys: Vec<u32> = (0..shard_of.len() as u32).collect();
    stream(seed, 7).shuffle(&mut keys);
    let shards = shard_of.iter().max().map_or(1, |m| m + 1);
    let mut per_shard: Vec<std::collections::VecDeque<u32>> = vec![Default::default(); shards];
    for k in keys {
        per_shard[shard_of[k as usize]].push_back(k);
    }
    let mut by_rank = Vec::with_capacity(shard_of.len());
    while by_rank.len() < shard_of.len() {
        by_rank.extend(per_shard.iter_mut().filter_map(|q| q.pop_front()));
    }
    by_rank
}

/// `gets` keys drawn Zipf(θ) over the ranks of `by_rank`.
pub fn read_tape(seed: u64, by_rank: &[u32], gets: usize, theta: f64) -> Vec<u32> {
    let mut s = stream(seed, 5);
    let zipf = Zipf::new(by_rank.len(), theta);
    (0..gets).map(|_| by_rank[zipf.sample(&mut s)]).collect()
}

/// One `serve_write` round: writes to enqueue, then gets with the value
/// the model says each must return after the round's writes.
pub struct WriteRound {
    /// `Some(value)` puts, `None` deletes.
    pub writes: Vec<(u64, Option<u64>)>,
    pub gets: Vec<(u64, Option<u64>)>,
}

/// The `serve_write` tape and the model state it must leave behind.
pub struct WriteTape {
    pub rounds: Vec<WriteRound>,
    /// Live keys after the last round.
    pub model: BTreeMap<u64, u64>,
}

/// `rounds` rounds of `puts` puts on a `keyspace`-key space, `deletes`
/// deletes of keys live at that point, and `gets` gets (even ones on keys
/// written this round, odd ones anywhere in the keyspace).
pub fn write_tape(
    seed: u64,
    rounds: usize,
    puts: usize,
    deletes: usize,
    gets: usize,
    keyspace: u64,
) -> WriteTape {
    let mut s = stream(seed, 6);
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    // Keys ever put, for picking delete victims without scanning the map.
    let mut seen: Vec<u64> = Vec::new();
    let mut tape = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let mut writes = Vec::with_capacity(puts + deletes);
        for _ in 0..puts {
            let (key, value) = (s.below(keyspace), s.next_u64());
            model.insert(key, value);
            seen.push(key);
            writes.push((key, Some(value)));
        }
        for _ in 0..deletes {
            let key = seen[s.below(seen.len() as u64) as usize];
            model.remove(&key);
            writes.push((key, None));
        }
        let gets = (0..gets)
            .map(|g| {
                let key = if g % 2 == 0 {
                    writes[s.below(writes.len() as u64) as usize].0
                } else {
                    s.below(keyspace)
                };
                (key, model.get(&key).copied())
            })
            .collect();
        tape.push(WriteRound { writes, gets });
    }
    WriteTape {
        rounds: tape,
        model,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_pure_functions_of_the_seed() {
        assert_eq!(sort_input(7, 1000), sort_input(7, 1000));
        assert_ne!(sort_input(7, 1000), sort_input(8, 1000));
        assert_eq!(q1_rows(7, 500, 64), q1_rows(7, 500, 64));
        assert_ne!(q1_rows(7, 500, 64), q1_rows(9, 500, 64));
        assert_eq!(q3u_relations(7, 100), q3u_relations(7, 100));
        assert_ne!(q3u_relations(7, 100).1, q3u_relations(8, 100).1);
        assert_eq!(read_keys(7, 100), read_keys(7, 100));
        let shard_of: Vec<usize> = (0..100).map(|k| k % 3 % 2).collect();
        let order = popularity_order(7, &shard_of);
        assert_eq!(order, popularity_order(7, &shard_of));
        assert_ne!(order, popularity_order(8, &shard_of));
        assert_eq!(
            read_tape(7, &order, 500, 0.99),
            read_tape(7, &order, 500, 0.99)
        );
        assert_ne!(
            read_tape(7, &order, 500, 0.99),
            read_tape(8, &order, 500, 0.99)
        );
        let (a, b) = (
            write_tape(7, 5, 8, 2, 2, 100),
            write_tape(7, 5, 8, 2, 2, 100),
        );
        assert_eq!(a.model, b.model);
        for (x, y) in a.rounds.iter().zip(&b.rounds) {
            assert_eq!((&x.writes, &x.gets), (&y.writes, &y.gets));
        }
        assert_ne!(a.model, write_tape(8, 5, 8, 2, 2, 100).model);
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(1000, 0.99);
        let mut s = SplitMix64::new(1);
        let mut counts = vec![0u32; 1000];
        for _ in 0..100_000 {
            counts[z.sample(&mut s)] += 1;
        }
        // H(1000, 0.99) ≈ 7.6: rank 0 draws ≈ 13 %, the top 10 ≈ 39 %.
        assert!((11_000..15_000).contains(&counts[0]), "{}", counts[0]);
        let top10: u32 = counts[..10].iter().sum();
        assert!((36_000..42_000).contains(&top10), "{top10}");
        assert!(counts[0] > counts[9] && counts[9] > counts[500]);
    }

    #[test]
    fn popularity_alternates_shards_while_both_have_keys() {
        // 67 keys on shard 0, 33 on shard 1.
        let shard_of: Vec<usize> = (0..100).map(|k| k % 3 % 2).collect();
        let order = popularity_order(5, &shard_of);
        let mut seen = order.clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..100).collect::<Vec<u32>>());
        for (rank, &k) in order.iter().enumerate().take(66) {
            assert_eq!(shard_of[k as usize], rank % 2, "rank {rank}");
        }
    }

    #[test]
    fn read_keys_are_distinct() {
        let mut keys: Vec<u64> = read_keys(3, 10_000).into_iter().map(|(k, _)| k).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 10_000);
    }

    #[test]
    fn write_tape_gets_match_a_replayed_model() {
        let tape = write_tape(11, 20, 10, 3, 4, 200);
        let mut model = BTreeMap::new();
        for round in &tape.rounds {
            for &(k, op) in &round.writes {
                match op {
                    Some(v) => model.insert(k, v),
                    None => model.remove(&k),
                };
            }
            for &(k, want) in &round.gets {
                assert_eq!(model.get(&k).copied(), want);
            }
        }
        assert_eq!(model, tape.model);
    }

    #[test]
    fn q3u_orders_are_unique_and_last_is_kept() {
        let (orders, lineitem) = q3u_relations(5, 300);
        let mut keys: Vec<u64> = orders.iter().map(|r| r.0).collect();
        keys.sort_unstable();
        assert_eq!(keys, (0..300).collect::<Vec<_>>());
        assert!(lineitem.iter().all(|r| r.0 < 300));
        assert!(q3u_keep_order(299, 300));
    }
}
