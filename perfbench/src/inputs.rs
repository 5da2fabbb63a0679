//! Generated inputs: datasets, evidence deltas and request streams.
//!
//! Datasets are the committed testbeds at their fixed dataset seed, so
//! their sizes (and the quality probe's answers) never change between
//! runs. The workload seed (`--seed`) drives everything the workload
//! *sends*: which atoms the deltas touch, the request mix and the
//! WalkSAT seed of every streamed request.

use tuffy::{render_atom, Engine, TuffyConfig, WalkSatParams};
use tuffy_datagen::Dataset;

/// Dataset seed of every committed testbed.
pub const DATA_SEED: u64 = 20110829;

/// WalkSAT flip budget of every MAP request.
pub const FLIPS: u64 = 10_000;

/// WalkSAT parameters of a request with WalkSAT seed `seed`; the same
/// values travel in the wire query's `search` line.
pub fn search(seed: u64) -> WalkSatParams {
    WalkSatParams {
        max_flips: FLIPS,
        max_tries: 1,
        noise: 0.5,
        seed,
    }
}

/// Full size, or a tiny instance for the benchmark's own test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// The testbeds the workloads run on.
#[derive(Clone, Copy, Debug)]
pub enum Data {
    /// Grounding-scale RC (`rc_ground`): 80,522 clauses, 11,385 atoms.
    Rc,
    /// ER(16, 60), the crash-recovery testbed.
    ErSmall,
}

impl Data {
    /// Generates the dataset.
    pub fn generate(self, scale: Scale) -> Dataset {
        use tuffy_datagen::{er, rc_with_labels};
        match (self, scale) {
            (Data::Rc, Scale::Full) => rc_with_labels(400, 14, 0.85, DATA_SEED),
            (Data::Rc, Scale::Tiny) => rc_with_labels(12, 6, 0.85, DATA_SEED),
            (Data::ErSmall, Scale::Full) => er(16, 60, DATA_SEED),
            (Data::ErSmall, Scale::Tiny) => er(5, 16, DATA_SEED),
        }
    }
}

/// The engine configuration: the shipped defaults (hybrid,
/// component-aware search, one search thread per query) with the
/// request flip budget and grounding on every host CPU.
pub fn config(nproc: usize) -> TuffyConfig {
    TuffyConfig {
        search: search(DATA_SEED),
        ground_threads: nproc,
        ..TuffyConfig::default()
    }
}

/// SplitMix64: a tiny deterministic generator for request streams.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Where a workload's deltas come from.
pub struct DeltaPool {
    /// Open-world asserts of atoms active in the grounding (`cat` on RC,
    /// `sameBib` on ER).
    open: Vec<String>,
    /// Closed-world flips of evidence atoms (`~hasWord*` on ER; empty on
    /// RC).
    closed: Vec<String>,
}

/// The kind of one evidence delta, for the patched/re-ground split.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum DeltaKind {
    OpenAssert,
    ClosedFlip,
}

impl DeltaKind {
    pub fn label(self) -> &'static str {
        match self {
            DeltaKind::OpenAssert => "open-world assert",
            DeltaKind::ClosedFlip => "closed-world flip",
        }
    }
}

impl DeltaPool {
    /// Collects candidate atoms from a freshly built engine: query atoms
    /// of `open_pred` with distinct arguments, and evidence atoms whose
    /// predicate starts with `closed_prefix`.
    pub fn from_engine(engine: &Engine, open_pred: &str, closed_prefix: Option<&str>) -> DeltaPool {
        let snap = engine.snapshot();
        let program = snap.program();
        let pred = program
            .predicate_by_name(open_pred)
            .unwrap_or_else(|| panic!("dataset has no `{open_pred}` predicate"));
        let registry = &snap.grounding().registry;
        let open = registry
            .iter()
            .filter(|(_, p, args)| *p == pred && args.windows(2).all(|w| w[0] != w[1]))
            .map(|(id, _, _)| render_atom(program, &registry.ground_atom(id)))
            .collect::<Vec<_>>();
        let closed = match closed_prefix {
            None => Vec::new(),
            Some(prefix) => snap
                .evidence()
                .iter()
                .map(|ev| render_atom(program, &ev.atom))
                .filter(|a| a.starts_with(prefix))
                .map(|a| format!("~{a}"))
                .collect(),
        };
        assert!(!open.is_empty(), "no `{open_pred}` atoms to assert");
        DeltaPool { open, closed }
    }

    /// A seeded stream of deltas. When the pool has both kinds, two
    /// closed-world flips precede each open-world assert: a fixed mix
    /// whose median apply falls inside one population (today's
    /// re-grounds) rather than on the boundary between two. Open-world
    /// atoms are drawn without replacement (a repeated assert would be a
    /// no-op), flips with replacement.
    pub fn stream(&self, seed: u64) -> DeltaStream<'_> {
        let mut order: Vec<usize> = (0..self.open.len()).collect();
        let mut rng = Rng::new(seed);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i + 1));
        }
        DeltaStream {
            pool: self,
            order,
            next_open: 0,
            count: 0,
            rng,
        }
    }

    /// A seeded one-atom open-world assert (for `given` queries, drawn
    /// with replacement: each conditions its own ephemeral fork).
    pub fn given(&self, rng: &mut Rng) -> String {
        self.open[rng.below(self.open.len())].clone()
    }
}

/// See [`DeltaPool::stream`].
pub struct DeltaStream<'a> {
    pool: &'a DeltaPool,
    order: Vec<usize>,
    next_open: usize,
    count: u64,
    rng: Rng,
}

impl DeltaStream<'_> {
    /// The next delta's source text and kind.
    pub fn next_delta(&mut self) -> (String, DeltaKind) {
        self.count += 1;
        let flip = !self.pool.closed.is_empty() && !self.count.is_multiple_of(3);
        if flip {
            let i = self.rng.below(self.pool.closed.len());
            (self.pool.closed[i].clone(), DeltaKind::ClosedFlip)
        } else {
            let i = self.order[self.next_open % self.order.len()];
            self.next_open += 1;
            (self.pool.open[i].clone(), DeltaKind::OpenAssert)
        }
    }
}
