//! Deterministic inputs, from a generator that lives here — not in the
//! workspace under test — so a later change to `tkd-data` or its `rand`
//! shim cannot silently change what the benchmark feeds the program.
//!
//! `--seed` drives the traffic: the update stream (and through it how the
//! data evolves), the read mix and the k sequence. The rows a workload
//! starts from are drawn once, from [`DATA_SEED`], like the fixed tables of
//! a database benchmark. The reason is measured: which few rows sit at the
//! top of an IND dataset decides how many candidates a top-k query scores,
//! and over ten freshly drawn datasets the same BIG k = 8 cluster query
//! cost 0.8–2.3 ms, IBIG on the cold path 240–460 ms. A run that draws
//! its own dataset measures the draw, not the program (README: "Noise").

use tkdi::model::Dataset;
use tkdi::prelude::UpdateOp;

/// SplitMix64 (Steele, Lea & Flood): tiny, seedable, and good enough to
/// draw workloads from. `stream` separates the independent sequences one
/// seed feeds (dataset, writer ops, reader mix).
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2⁻⁴⁰ for
    /// every `n` used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64) < p * (1u64 << 53) as f64
    }
}

/// One row of the paper's Table 2: IND values, MCAR missingness.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub n: usize,
    pub dims: usize,
    /// Values are the integers `0..cardinality`.
    pub cardinality: usize,
    /// Each cell is dropped independently with this probability; a row
    /// that would lose every cell keeps one (the model's invariant).
    pub missing: f64,
}

impl Shape {
    /// The `--smoke` size: a tenth of the rows, same shape otherwise.
    pub fn smoke(self) -> Shape {
        Shape {
            n: (self.n / 10).max(500),
            ..self
        }
    }
}

fn row(rng: &mut Rng, shape: &Shape) -> Vec<Option<f64>> {
    let values: Vec<f64> = (0..shape.dims)
        .map(|_| rng.below(shape.cardinality) as f64)
        .collect();
    let mut row: Vec<Option<f64>> = values
        .iter()
        .map(|&v| (!rng.chance(shape.missing)).then_some(v))
        .collect();
    if row.iter().all(Option::is_none) {
        let keep = rng.below(shape.dims);
        row[keep] = Some(values[keep]);
    }
    row
}

/// The seed every workload's starting rows are drawn from.
pub const DATA_SEED: u64 = 42;

/// The rows a workload starts from: `shape` drawn from [`DATA_SEED`].
pub fn dataset(shape: &Shape) -> Dataset {
    let mut rng = Rng::new(DATA_SEED, 1);
    let rows: Vec<Vec<Option<f64>>> = (0..shape.n).map(|_| row(&mut rng, shape)).collect();
    Dataset::from_rows(shape.dims, &rows).expect("generated rows are valid")
}

/// The first `n` rows of `ds` as their own dataset (the Naive parity
/// probe runs on a prefix, where the quadratic reference is affordable).
pub fn prefix(ds: &Dataset, n: usize) -> Dataset {
    let ids: Vec<u32> = (0..n.min(ds.len()) as u32).collect();
    ds.select(&ids)
}

/// Ops per update batch, on every workload.
pub const BATCH_OPS: usize = 16;

/// The update stream: 50 % insert, 25 % delete, 25 % set, drawn so that no
/// op can fail — deletes and sets only name ids known to be live (inserted
/// ids become known through [`OpGen::ack`]), and a set never clears a
/// row's last observed cell.
pub struct OpGen {
    rng: Rng,
    shape: Shape,
    live: Vec<u32>,
    /// Observed-dimension bitmask per stable id (ids are dense).
    masks: Vec<u64>,
    /// Masks of the inserts handed out and not acked yet, in op order.
    pending: Vec<u64>,
}

impl OpGen {
    pub fn new(ds: &Dataset, shape: Shape, seed: u64) -> Self {
        let masks: Vec<u64> = ds
            .ids()
            .map(|id| ds.mask(id).iter().fold(0u64, |m, d| m | 1 << d))
            .collect();
        OpGen {
            rng: Rng::new(seed, 2),
            shape,
            live: (0..ds.len() as u32).collect(),
            masks,
            pending: Vec::new(),
        }
    }

    pub fn next_batch(&mut self) -> Vec<UpdateOp> {
        assert!(self.pending.is_empty(), "previous batch was never acked");
        (0..BATCH_OPS).map(|_| self.next_op()).collect()
    }

    fn next_op(&mut self) -> UpdateOp {
        match self.rng.below(4) {
            0 | 1 => {
                let row = row(&mut self.rng, &self.shape);
                let mask = row
                    .iter()
                    .enumerate()
                    .fold(0u64, |m, (d, c)| m | u64::from(c.is_some()) << d);
                self.pending.push(mask);
                UpdateOp::Insert(row)
            }
            2 => {
                let at = self.rng.below(self.live.len());
                UpdateOp::Delete(self.live.swap_remove(at))
            }
            _ => {
                let id = self.live[self.rng.below(self.live.len())];
                let dim = self.rng.below(self.shape.dims);
                let mask = &mut self.masks[id as usize];
                let clear = self.rng.chance(self.shape.missing) && *mask & !(1 << dim) != 0;
                if clear {
                    *mask &= !(1 << dim);
                    UpdateOp::Set(id, dim, None)
                } else {
                    *mask |= 1 << dim;
                    let v = self.rng.below(self.shape.cardinality) as f64;
                    UpdateOp::Set(id, dim, Some(v))
                }
            }
        }
    }

    /// Learn the stable ids the last batch's inserts were given.
    pub fn ack(&mut self, inserted: &[u32]) {
        assert_eq!(inserted.len(), self.pending.len(), "one id per insert");
        for (&id, mask) in inserted.iter().zip(self.pending.drain(..)) {
            if self.masks.len() <= id as usize {
                self.masks.resize(id as usize + 1, 0);
            }
            self.masks[id as usize] = mask;
            self.live.push(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Shape = Shape {
        n: 200,
        dims: 4,
        cardinality: 100,
        missing: 0.3,
    };

    /// FNV-1a over the debug rendering: pins the stream without listing it.
    fn fnv(text: &str) -> u64 {
        text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn dataset_and_seed_42_op_stream_are_pinned() {
        let ds = dataset(&TINY);
        let rows: Vec<_> = ds.ids().map(|o| ds.row(o).to_options()).collect();
        assert_eq!(
            rows[0],
            vec![None, Some(64.0), Some(50.0), Some(62.0)],
            "first row"
        );
        assert_eq!(fnv(&format!("{rows:?}")), 0xe35c_7c21_5593_078a, "dataset");

        let mut gen = OpGen::new(&ds, TINY, 42);
        let mut next_id = TINY.n as u32;
        let mut stream = Vec::new();
        for _ in 0..4 {
            let batch = gen.next_batch();
            let inserted: Vec<u32> = batch
                .iter()
                .filter(|op| matches!(op, UpdateOp::Insert(_)))
                .map(|_| {
                    next_id += 1;
                    next_id - 1
                })
                .collect();
            gen.ack(&inserted);
            stream.push(batch);
        }
        assert_eq!(
            stream[0][..2],
            [
                UpdateOp::Insert(vec![None, Some(14.0), Some(19.0), Some(64.0)]),
                UpdateOp::Delete(20)
            ],
            "first ops"
        );
        assert_eq!(
            fnv(&format!("{stream:?}")),
            0xad63_3978_c14c_51bf,
            "op stream"
        );
    }

    #[test]
    fn same_seed_same_traffic_other_seed_other_traffic() {
        let ds = dataset(&TINY);
        let first = |seed| OpGen::new(&ds, TINY, seed).next_batch();
        assert_eq!(first(7), first(7));
        assert_ne!(first(7), first(8));
    }

    #[test]
    fn no_generated_op_can_fail() {
        let ds = dataset(&TINY);
        let mut engine = tkdi::prelude::DynamicEngine::new(ds.clone());
        let mut gen = OpGen::new(&ds, TINY, 42);
        for _ in 0..40 {
            let report = engine.apply_ops(&gen.next_batch());
            assert_eq!(report.error, None);
            assert_eq!(report.applied, BATCH_OPS);
            gen.ack(&report.inserted_ids);
        }
    }
}
