//! The sharded serving tier: route millions of homes over a fixed shard
//! grid, keeping only the hot ones live.
//!
//! A [`ShardedRouter`] multiplexes many homes' tick streams: one
//! [`StreamingRecognizer`] per home, one parallel fan-out per arriving
//! round of ticks, and only the hot homes' decoder state in memory.
//!
//! * **Model registry.** Engines are registered once under a model id and
//!   [`Arc`]-shared fleet-wide — every home of a model reads the same
//!   [`HdbnParams`](cace_hdbn::HdbnParams) and score tables, so per-home
//!   memory is decoder state only.
//! * **Stable shards.** Homes hash to one of N shards by FNV-1a of their
//!   id — a pure function of the id and the shard count, never of thread
//!   count, insertion order, or process state. Within a shard, pushes
//!   apply in input order; across shards there is no shared mutable
//!   state. Results are therefore **bit-identical** under any
//!   `RAYON_NUM_THREADS`.
//! * **LRU live cap.** Each shard keeps at most `live_cap` homes live;
//!   the least-recently-pushed overflow is transparently **parked** —
//!   serialized to the binary parked-stream snapshot
//!   ([`ParkedStream::to_snapshot_bytes`]) — and rehydrated on its next
//!   push with a bit-identical continuation. A capped router's decisions
//!   equal an uncapped one's (`tests/router_scale.rs` proves it).
//!   [`export_home`](ShardedRouter::export_home) hands those same bytes
//!   over; [`import_home`](ShardedRouter::import_home) takes them.
//!   Rehydration reads them through [`ParkedStream::from_snapshot_bytes`],
//!   so a park of another layout (a `v3` or `v4` build's) quarantines its
//!   home on the first push.
//! * **Fault containment.** A failing push, a tampered parked snapshot,
//!   or a checkpoint that does not match its model **quarantines** that
//!   home ([`HomeRound::Failed`], then [`HomeRound::Quarantined`]) and
//!   never desynchronizes its shard-mates, and never panics.
//! * **Online adaptation.** A model id is a *versioned* registry entry:
//!   [`enable_adaptation`](ShardedRouter::enable_adaptation) starts drift
//!   capture on the model's homes,
//!   [`adapt_model`](ShardedRouter::adapt_model) folds the captured
//!   windows into a [`DriftAccumulator`],
//!   re-runs the M-step, and publishes the re-estimated engine as the
//!   next **generation**. Live homes **hot-swap** onto the current
//!   generation lazily, at their next push — a decision boundary — via
//!   [`StreamingRecognizer::swap_model`], so pre-swap decisions are
//!   bit-identical and the continuation equals a fresh resume from the
//!   parked frontier under the new model. Parked homes migrate at
//!   rehydration, fingerprint-directed: a checkpoint from any *known*
//!   generation rolls forward (or back, after
//!   [`rollback_model`](ShardedRouter::rollback_model)) explicitly;
//!   unknown fingerprints quarantine. Generations persist as
//!   [`ModelRecord`] snapshots for roll forward/back across processes.
//!
//! Per-shard counters (live/parked homes, park/rehydrate counts, model
//! swaps, LRU repairs, push latency) are exposed through
//! [`ShardedRouter::stats`].

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use cace_behavior::ObservedTick;
use cace_hdbn::{DriftAccumulator, Lag, SingleHdbn};
use cace_model::ModelError;
use rayon::prelude::*;

use crate::engine::CaceEngine;
use crate::snapshot::{fnv1a64, ModelRecord};
use crate::stream::{
    resume_shared, stream_shared, ParkedStream, StreamDecision, StreamTail, StreamingRecognizer,
};

fn config_err(what: impl Into<String>) -> ModelError {
    ModelError::InvalidConfig(what.into())
}

/// Per-home outcome of one [`ShardedRouter::push_round`].
#[derive(Debug, Clone)]
pub enum HomeRound {
    /// The home's stream advanced; a ripened fixed-lag decision may have
    /// been emitted.
    Advanced(Option<StreamDecision>),
    /// The home's tick failed recognition this round. The home is now
    /// quarantined: later rounds skip it, and [`ShardedRouter::finish`]
    /// reports this error instead of a [`StreamTail`].
    Failed(ModelError),
    /// The home was quarantined by an earlier round; its tick was not
    /// delivered.
    Quarantined,
}

impl HomeRound {
    /// The decision of an advanced home (`None` for failed/quarantined
    /// homes as well as rounds that ripened nothing).
    pub fn decision(&self) -> Option<StreamDecision> {
        match self {
            HomeRound::Advanced(d) => *d,
            _ => None,
        }
    }
}

/// Where one home's decoder state currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HomeStatus {
    /// Decoder state is in memory; the next push is a plain DP step.
    Live,
    /// Decoder state is parked as snapshot bytes; the next push
    /// rehydrates it first.
    Parked,
    /// The home hit an unrecoverable per-home fault; later pushes are
    /// skipped and [`ShardedRouter::finish`] reports the error.
    Quarantined,
}

/// One home's slot inside a shard.
struct HomeSlot {
    id: u64,
    /// Index into the router's model registry.
    model: usize,
    /// The model generation this home's live stream currently decodes
    /// under. A lag behind the registry's current generation is repaired
    /// lazily — a hot swap at the home's next push.
    generation: usize,
    /// Last-touch stamp; stale [`Shard::lru`] entries are detected by
    /// comparing against it (lazy deletion).
    touch: u64,
    state: SlotState,
}

impl HomeSlot {
    fn is_live(&self) -> bool {
        matches!(self.state, SlotState::Live(_))
    }
}

/// When and how a model's homes feed the incremental-EM loop. Set per
/// model id via [`ShardedRouter::enable_adaptation`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptationPolicy {
    /// Ticks per drift window captured on each live stream (≥ 1).
    pub window_ticks: usize,
    /// Minimum accumulated windows before
    /// [`adapt_model`](ShardedRouter::adapt_model) publishes a new
    /// generation (≥ 1); below it, counts keep accumulating.
    pub min_windows: u64,
    /// Prior strength (pseudo-count mass, > 0) anchoring the MAP M-step
    /// at the serving tables: rows the drift windows never visited stay
    /// at the base model, well-observed rows follow the drifted data.
    pub laplace: f64,
}

impl Default for AdaptationPolicy {
    fn default() -> Self {
        Self {
            window_ticks: 32,
            min_windows: 4,
            laplace: 0.5,
        }
    }
}

/// One versioned model registry entry: every generation ever published
/// (index = generation, so indices stay stable across rollbacks), the
/// currently served one, and the adaptation state.
struct ModelEntry {
    name: String,
    engines: Vec<Arc<CaceEngine>>,
    current: usize,
    policy: Option<AdaptationPolicy>,
    drift: Option<DriftAccumulator>,
}

/// An immutable per-model snapshot taken at the top of a round, so the
/// parallel shard fan-out reads one consistent registry state (no shard
/// can observe a mid-round publish).
struct ServeView {
    engine: Arc<CaceEngine>,
    generation: usize,
    capture_window: Option<usize>,
    /// Parameter fingerprints of every known generation, indexed by
    /// generation — the rehydration path uses them to tell a *stale but
    /// known* checkpoint (migrate explicitly) from a foreign one
    /// (quarantine).
    known_fps: Vec<u64>,
}

#[allow(clippy::large_enum_variant)]
enum SlotState {
    Live(Box<StreamingRecognizer<'static>>),
    /// Parked snapshot bytes: the binary envelope the router parks in, or
    /// whatever parked form an [`import_home`](ShardedRouter::import_home)
    /// handed it. Rehydration sniffs the header.
    Parked(Vec<u8>),
    Quarantined(ModelError),
}

/// Monotonically growing counters of one shard. Deterministic for a given
/// input sequence — thread count never shows up in here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Homes currently live (decoder state in memory).
    pub live_homes: usize,
    /// Homes currently parked (snapshot bytes only).
    pub parked_homes: usize,
    /// Homes quarantined by a fault.
    pub quarantined_homes: usize,
    /// Times this shard parked a home (LRU eviction or explicit).
    pub parks: u64,
    /// Times this shard rehydrated a parked home.
    pub rehydrations: u64,
    /// Times a home in this shard hot-swapped onto another model
    /// generation (live swap at a push, or fingerprint-directed
    /// migration at rehydration).
    pub swaps: u64,
    /// Times [`enforce_cap`](ShardedRouter::with_live_cap)'s LRU queue
    /// was found missing an entry for a live home and the shard repaired
    /// itself by parking the stalest live home directly (instead of
    /// panicking, which would take the whole shard down).
    pub lru_repairs: u64,
    /// Ticks pushed through this shard.
    pub pushes: u64,
    /// Total wall time spent inside pushes, in nanoseconds (includes any
    /// rehydration the push triggered).
    pub push_nanos: u64,
}

/// Fleet-wide roll-up of [`ShardStats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Per-shard counters, indexed by shard.
    pub shards: Vec<ShardStats>,
}

impl RouterStats {
    fn sum<T: std::iter::Sum<T>>(&self, f: impl Fn(&ShardStats) -> T) -> T {
        self.shards.iter().map(f).sum()
    }

    /// Homes currently live across all shards.
    pub fn live_homes(&self) -> usize {
        self.sum(|s| s.live_homes)
    }

    /// Homes currently parked across all shards.
    pub fn parked_homes(&self) -> usize {
        self.sum(|s| s.parked_homes)
    }

    /// Homes quarantined across all shards.
    pub fn quarantined_homes(&self) -> usize {
        self.sum(|s| s.quarantined_homes)
    }

    /// Total park operations across all shards.
    pub fn parks(&self) -> u64 {
        self.sum(|s| s.parks)
    }

    /// Total rehydrations across all shards.
    pub fn rehydrations(&self) -> u64 {
        self.sum(|s| s.rehydrations)
    }

    /// Total model-generation hot swaps across all shards.
    pub fn swaps(&self) -> u64 {
        self.sum(|s| s.swaps)
    }

    /// Total LRU self-repairs across all shards (0 in a healthy fleet).
    pub fn lru_repairs(&self) -> u64 {
        self.sum(|s| s.lru_repairs)
    }

    /// Total ticks pushed across all shards.
    pub fn pushes(&self) -> u64 {
        self.sum(|s| s.pushes)
    }

    /// Mean wall time per push, in nanoseconds (0 before the first push).
    pub fn mean_push_nanos(&self) -> u64 {
        self.sum::<u64>(|s| s.push_nanos)
            .checked_div(self.pushes())
            .unwrap_or(0)
    }
}

/// One shard: a disjoint subset of homes, advanced sequentially.
#[derive(Default)]
struct Shard {
    slots: Vec<HomeSlot>,
    /// Home id → index into `slots`.
    index: HashMap<u64, usize>,
    /// LRU queue of `(touch, slot)` pairs, oldest first. Entries whose
    /// `touch` no longer matches the slot's are stale and skipped — lazy
    /// deletion keeps touches O(1). [`Shard::touch`] drops the stale
    /// entries once the queue outgrows twice the slot count, so it stays
    /// bounded even when no cap ever pops it.
    lru: std::collections::VecDeque<(u64, usize)>,
    /// Number of slots in [`SlotState::Live`], kept in step with every
    /// state change so [`Shard::enforce_cap`] need not recount.
    live: usize,
    /// Per-shard logical clock stamping touches. Advances only on
    /// in-shard events, so it is independent of thread interleaving.
    clock: u64,
    parks: u64,
    rehydrations: u64,
    swaps: u64,
    lru_repairs: u64,
    pushes: u64,
    push_nanos: u64,
}

impl Shard {
    fn stats(&self) -> ShardStats {
        let mut stats = ShardStats {
            parks: self.parks,
            rehydrations: self.rehydrations,
            swaps: self.swaps,
            lru_repairs: self.lru_repairs,
            pushes: self.pushes,
            push_nanos: self.push_nanos,
            ..ShardStats::default()
        };
        for slot in &self.slots {
            match slot.state {
                SlotState::Live(_) => stats.live_homes += 1,
                SlotState::Parked(_) => stats.parked_homes += 1,
                SlotState::Quarantined(_) => stats.quarantined_homes += 1,
            }
        }
        stats
    }

    fn touch(&mut self, slot: usize) {
        self.clock += 1;
        self.slots[slot].touch = self.clock;
        self.lru.push_back((self.clock, slot));
        if self.lru.len() > 2 * self.slots.len() {
            // Stale entries are the ones `enforce_cap` would skip, so
            // dropping them leaves the eviction order as it was.
            let slots = &self.slots;
            self.lru.retain(|&(touch, slot)| slots[slot].touch == touch);
        }
    }

    /// Parks `slot` in the binary snapshot kind if it is live.
    fn park_slot(&mut self, slot: usize) {
        let SlotState::Live(stream) = &self.slots[slot].state else {
            return;
        };
        self.slots[slot].state = SlotState::Parked(stream.park().to_snapshot_bytes());
        self.parks += 1;
        self.live -= 1;
    }

    /// Parks least-recently-touched live homes until at most `cap` remain
    /// live. Deterministic: eviction order is touch order, which is
    /// in-shard push order.
    fn enforce_cap(&mut self, cap: usize) {
        while self.live > cap {
            let Some((touch, slot)) = self.lru.pop_front() else {
                // Invariant breach: more live homes than the cap allows,
                // but the LRU queue has no entry left for any of them.
                // Panicking here would take every home in the shard down
                // with it — instead, *repair*: park the stalest live home
                // directly (min `(touch, slot)`, the same deterministic
                // order the queue would have produced) and record the
                // repair so operators can see the invariant was violated.
                let victim = self
                    .slots
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| matches!(s.state, SlotState::Live(_)))
                    .min_by_key(|(i, s)| (s.touch, *i))
                    .map(|(i, _)| i);
                let Some(slot) = victim else {
                    break; // nothing live after all — nothing to park
                };
                self.park_slot(slot);
                self.lru_repairs += 1;
                continue;
            };
            // A stale entry (the home was touched again later) or a
            // parked/quarantined slot's entry is simply consumed.
            if self.slots[slot].touch == touch {
                self.park_slot(slot);
            }
        }
    }

    /// Advances one home by one tick, rehydrating it first if parked and
    /// hot-swapping it onto the current model generation if it lags.
    /// Never panics: every failure quarantines this home only.
    fn push(&mut self, slot: usize, views: &[ServeView], tick: &ObservedTick) -> HomeRound {
        let was_live = usize::from(self.slots[slot].is_live());
        let outcome = self.advance(slot, views, tick);
        self.live = self.live - was_live + usize::from(self.slots[slot].is_live());
        outcome
    }

    /// [`push`](Self::push) without the live-count bookkeeping.
    fn advance(&mut self, slot: usize, views: &[ServeView], tick: &ObservedTick) -> HomeRound {
        let start = Instant::now();
        let home = &mut self.slots[slot];
        let view = &views[home.model];
        // Take the home's state out of its slot: every branch below puts
        // one back.
        let mut stream = match std::mem::replace(&mut home.state, SlotState::Parked(Vec::new())) {
            SlotState::Live(stream) => stream,
            // Tampered or mismatched snapshot bytes surface here as a
            // Persistence error → quarantine, not a panic.
            SlotState::Parked(bytes) => match rehydrate(&bytes, view) {
                Ok((stream, migrated)) => {
                    home.generation = view.generation;
                    self.rehydrations += 1;
                    self.swaps += u64::from(migrated);
                    Box::new(stream)
                }
                Err(e) => {
                    home.state = SlotState::Quarantined(e.clone());
                    return HomeRound::Failed(e);
                }
            },
            SlotState::Quarantined(e) => {
                home.state = SlotState::Quarantined(e);
                self.pushes += 1;
                self.push_nanos += start.elapsed().as_nanos() as u64;
                return HomeRound::Quarantined;
            }
        };
        // Lazy hot swap: a live home whose generation lags the registry
        // swaps here, at the decision boundary before this push, so every
        // already-emitted decision stays untouched.
        if home.generation != view.generation {
            if let Err(e) = stream.swap_model(&view.engine) {
                home.state = SlotState::Quarantined(e.clone());
                return HomeRound::Failed(e);
            }
            home.generation = view.generation;
            self.swaps += 1;
        }
        // Late-enable drift capture on homes that went live before the
        // model's adaptation policy was set.
        if let Some(window) = view.capture_window {
            if !stream.drift_capture_enabled() {
                stream.capture_drift(window);
            }
        }
        let outcome = match stream.push(tick) {
            Ok(decision) => {
                home.state = SlotState::Live(stream);
                HomeRound::Advanced(decision)
            }
            Err(e) => {
                home.state = SlotState::Quarantined(e.clone());
                HomeRound::Failed(e)
            }
        };
        if matches!(outcome, HomeRound::Advanced(_)) {
            self.touch(slot);
        }
        self.pushes += 1;
        self.push_nanos += start.elapsed().as_nanos() as u64;
        outcome
    }
}

/// Rehydrates a parked home under the round's view of its model. A
/// checkpoint from a *known* other generation of the model is migrated
/// explicitly (roll forward after a publish, roll back after a
/// rollback), which the returned flag reports; an unknown fingerprint
/// falls through to the resume gate and fails.
fn rehydrate(
    bytes: &[u8],
    view: &ServeView,
) -> Result<(StreamingRecognizer<'static>, bool), ModelError> {
    let parked = ParkedStream::from_snapshot_bytes(bytes)?;
    let fp = parked.model_fingerprint();
    if fp != view.engine.params.fingerprint() && view.known_fps.contains(&fp) {
        Ok((
            resume_shared(&view.engine, &parked.migrated_to(&view.engine))?,
            true,
        ))
    } else {
        Ok((resume_shared(&view.engine, &parked)?, false))
    }
}

/// The serving front end: N worker shards over a shared model registry,
/// an LRU live-state cap per shard, park/rehydrate on demand. See the
/// [module docs](self) for the design and guarantees.
pub struct ShardedRouter {
    models: Vec<ModelEntry>,
    shards: Vec<Shard>,
    /// Max live homes per shard; overflow is parked, oldest first.
    live_cap: usize,
}

/// Default shard count: a fixed grid (never derived from the machine's
/// core count) so shard assignment is stable across deployments.
pub const DEFAULT_SHARDS: usize = 8;

impl ShardedRouter {
    /// An empty router with [`DEFAULT_SHARDS`] shards and no live cap.
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }

    /// An empty router over `shards` worker shards (clamped to ≥ 1).
    ///
    /// The shard count is part of the home→shard mapping; pick it once,
    /// before homes are added.
    pub fn with_shards(shards: usize) -> Self {
        let shards = shards.max(1);
        Self {
            models: Vec::new(),
            shards: (0..shards).map(|_| Shard::default()).collect(),
            live_cap: usize::MAX,
        }
    }

    /// Caps live decoder state at `cap` homes **per shard** (clamped to
    /// ≥ 1); the least-recently-pushed overflow is transparently parked.
    /// Applies to current and future homes from the next push on.
    pub fn with_live_cap(mut self, cap: usize) -> Self {
        self.live_cap = cap.max(1);
        self
    }

    /// Number of shards in the grid.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard the given home id maps to — a pure function of the id
    /// and the shard count.
    pub fn shard_of(&self, id: u64) -> usize {
        (fnv1a64(&id.to_le_bytes()) % self.shards.len() as u64) as usize
    }

    /// Registers a trained engine under `name` as generation 0; homes
    /// reference it by that name and share it fleet-wide. Later
    /// generations come from [`adapt_model`](Self::adapt_model),
    /// [`publish_model`](Self::publish_model), or
    /// [`import_model`](Self::import_model).
    ///
    /// # Errors
    /// [`ModelError::InvalidConfig`] when `name` is already registered.
    pub fn register_model(
        &mut self,
        name: impl Into<String>,
        engine: Arc<CaceEngine>,
    ) -> Result<(), ModelError> {
        let name = name.into();
        if self.models.iter().any(|m| m.name == name) {
            return Err(config_err(format!("model `{name}` is already registered")));
        }
        self.models.push(ModelEntry {
            name,
            engines: vec![engine],
            current: 0,
            policy: None,
            drift: None,
        });
        Ok(())
    }

    fn model_index(&self, model: &str) -> Result<usize, ModelError> {
        self.models
            .iter()
            .position(|m| m.name == model)
            .ok_or_else(|| config_err(format!("model `{model}` is not registered")))
    }

    /// The per-model registry snapshot one round serves under.
    fn serve_views(&self) -> Vec<ServeView> {
        self.models
            .iter()
            .map(|m| ServeView {
                engine: Arc::clone(&m.engines[m.current]),
                generation: m.current,
                capture_window: m.policy.map(|p| p.window_ticks),
                known_fps: m.engines.iter().map(|e| e.params.fingerprint()).collect(),
            })
            .collect()
    }

    /// Registers a home served by `model`, opening a fresh live stream.
    ///
    /// # Errors
    /// [`ModelError::InvalidConfig`] on an unknown model or a duplicate
    /// home id.
    pub fn add_home(&mut self, id: u64, model: &str, lag: Lag) -> Result<(), ModelError> {
        let model = self.model_index(model)?;
        let entry = &self.models[model];
        let generation = entry.current;
        let mut stream = stream_shared(&entry.engines[generation], lag);
        if let Some(policy) = entry.policy {
            stream.capture_drift(policy.window_ticks);
        }
        self.insert(id, model, generation, SlotState::Live(Box::new(stream)))
    }

    /// Registers a home directly from parked snapshot bytes — e.g. state
    /// handed over from another process ([`export_home`](Self::export_home)
    /// output of a build that writes the same layout). The checkpoint
    /// carries its own lag; the bytes are *not* validated here — a bad
    /// checkpoint, or one of another layout, quarantines the home on its
    /// first push (never panics), exactly like bytes that went bad while
    /// parked.
    ///
    /// # Errors
    /// [`ModelError::InvalidConfig`] on an unknown model or a duplicate
    /// home id.
    pub fn import_home(
        &mut self,
        id: u64,
        model: &str,
        snapshot: Vec<u8>,
    ) -> Result<(), ModelError> {
        let model = self.model_index(model)?;
        let generation = self.models[model].current;
        self.insert(id, model, generation, SlotState::Parked(snapshot))
    }

    fn insert(
        &mut self,
        id: u64,
        model: usize,
        generation: usize,
        state: SlotState,
    ) -> Result<(), ModelError> {
        let shard = self.shard_of(id);
        let shard = &mut self.shards[shard];
        if shard.index.contains_key(&id) {
            return Err(config_err(format!("home id {id} is already registered")));
        }
        let slot = shard.slots.len();
        shard.slots.push(HomeSlot {
            id,
            model,
            generation,
            touch: 0,
            state,
        });
        shard.index.insert(id, slot);
        if shard.slots[slot].is_live() {
            shard.live += 1;
            shard.touch(slot);
            shard.enforce_cap(self.live_cap);
        }
        Ok(())
    }

    /// Total homes routed (live, parked, and quarantined).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.slots.len()).sum()
    }

    /// Whether no homes are routed.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.slots.is_empty())
    }

    /// Where the given home's state currently lives, if it is routed.
    pub fn home_status(&self, id: u64) -> Option<HomeStatus> {
        let shard = &self.shards[self.shard_of(id)];
        let slot = *shard.index.get(&id)?;
        Some(match shard.slots[slot].state {
            SlotState::Live(_) => HomeStatus::Live,
            SlotState::Parked(_) => HomeStatus::Parked,
            SlotState::Quarantined(_) => HomeStatus::Quarantined,
        })
    }

    /// Ids and errors of the homes quarantined so far, sorted by id.
    pub fn quarantined(&self) -> Vec<(u64, &ModelError)> {
        let mut out: Vec<(u64, &ModelError)> = self
            .shards
            .iter()
            .flat_map(|s| s.slots.iter())
            .filter_map(|slot| match &slot.state {
                SlotState::Quarantined(e) => Some((slot.id, e)),
                _ => None,
            })
            .collect();
        out.sort_by_key(|(id, _)| *id);
        out
    }

    /// Per-shard counters, indexed by shard.
    pub fn stats(&self) -> RouterStats {
        RouterStats {
            shards: self.shards.iter().map(Shard::stats).collect(),
        }
    }

    /// Parks the given live home immediately (no-op when already parked).
    ///
    /// # Errors
    /// [`ModelError::InvalidConfig`] on an unknown home id;
    /// [`ModelError::Persistence`] when the home is quarantined.
    pub fn park_home(&mut self, id: u64) -> Result<(), ModelError> {
        self.parked_bytes(id).map(|_| ())
    }

    /// Parks the given home if it is live and returns its parked snapshot
    /// bytes (errors as [`park_home`](Self::park_home)).
    fn parked_bytes(&mut self, id: u64) -> Result<&[u8], ModelError> {
        let shard = self.shard_of(id);
        let shard = &mut self.shards[shard];
        let slot = *shard
            .index
            .get(&id)
            .ok_or_else(|| config_err(format!("home id {id} is not routed")))?;
        shard.park_slot(slot);
        match &shard.slots[slot].state {
            SlotState::Parked(bytes) => Ok(bytes),
            SlotState::Quarantined(e) => Err(e.clone()),
            // `park_slot` parks every live slot, so this arm is never
            // taken; it stays an error rather than a panic.
            SlotState::Live(_) => Err(ModelError::Persistence {
                what: format!("home {id} is still live after parking"),
            }),
        }
    }

    /// The parked snapshot bytes of the given home, parking it first if
    /// it is live — the migration/handover export that
    /// [`import_home`](Self::import_home) takes back.
    ///
    /// # Errors
    /// Those of [`park_home`](Self::park_home).
    pub fn export_home(&mut self, id: u64) -> Result<Vec<u8>, ModelError> {
        self.parked_bytes(id).map(<[u8]>::to_vec)
    }

    /// Turns on online adaptation for `model`: every live home of the
    /// model starts capturing drift windows of `policy.window_ticks`
    /// ticks (parked homes pick capture up at rehydration), and
    /// [`adapt_model`](Self::adapt_model) becomes available. Capture is
    /// strictly observational — decisions are unchanged until a new
    /// generation is actually published and swapped in.
    ///
    /// # Errors
    /// [`ModelError::InvalidConfig`] on an unknown model or a degenerate
    /// policy (`window_ticks`/`min_windows` of 0, non-positive or
    /// non-finite `laplace`).
    pub fn enable_adaptation(
        &mut self,
        model: &str,
        policy: AdaptationPolicy,
    ) -> Result<(), ModelError> {
        let idx = self.model_index(model)?;
        if policy.window_ticks == 0 || policy.min_windows == 0 {
            return Err(config_err(
                "adaptation policy needs window_ticks >= 1 and min_windows >= 1",
            ));
        }
        if !policy.laplace.is_finite() || policy.laplace <= 0.0 {
            return Err(config_err(
                "adaptation policy needs a positive, finite laplace mass",
            ));
        }
        let entry = &mut self.models[idx];
        let params = Arc::clone(entry.engines[entry.current].hdbn_params());
        entry.policy = Some(policy);
        entry.drift = Some(DriftAccumulator::new(&params));
        for shard in &mut self.shards {
            for slot in &mut shard.slots {
                if slot.model != idx {
                    continue;
                }
                if let SlotState::Live(stream) = &mut slot.state {
                    if !stream.drift_capture_enabled() {
                        stream.capture_drift(policy.window_ticks);
                    }
                }
            }
        }
        Ok(())
    }

    /// Runs one background adaptation step for `model`: harvests the
    /// completed drift windows from its live homes (in shard/slot order —
    /// deterministic for a given push history), folds them into the
    /// model's [`DriftAccumulator`], and — once the policy's
    /// `min_windows` is reached — re-runs the M-step and publishes the
    /// re-estimated engine as the next generation. Live homes hot-swap
    /// onto it lazily at their next push.
    ///
    /// Returns the new generation index, or `None` when the accumulator
    /// is still below `min_windows` (counts are kept for the next call).
    /// Windows the E-step cannot process are skipped — adaptation data is
    /// best-effort by design and never takes the fleet down.
    ///
    /// # Errors
    /// [`ModelError::InvalidConfig`] on an unknown model or one without a
    /// policy; re-estimation errors surface as the M-step's own errors.
    pub fn adapt_model(&mut self, model: &str) -> Result<Option<usize>, ModelError> {
        let idx = self.model_index(model)?;
        let policy = self.models[idx].policy.ok_or_else(|| {
            config_err(format!(
                "model `{model}` has no adaptation policy (call enable_adaptation first)"
            ))
        })?;
        let engine = Arc::clone(&self.models[idx].engines[self.models[idx].current]);
        let observer = SingleHdbn::from_shared(Arc::clone(engine.hdbn_params()));
        let mut drift = self.models[idx]
            .drift
            .take()
            .unwrap_or_else(|| DriftAccumulator::new(engine.hdbn_params()));
        for shard in &mut self.shards {
            for slot in &mut shard.slots {
                if slot.model != idx {
                    continue;
                }
                if let SlotState::Live(stream) = &mut slot.state {
                    for window in stream.take_drift_windows() {
                        // `observe` leaves the accumulator untouched on
                        // failure, so a bad window is dropped whole.
                        let _ = drift.observe(&observer, &window);
                    }
                }
            }
        }
        let outcome = if drift.windows() >= policy.min_windows {
            let params = drift.reestimate(engine.hdbn_params(), policy.laplace)?;
            let adapted = Arc::new(engine.with_params(params)?);
            let entry = &mut self.models[idx];
            entry.engines.push(adapted);
            entry.current = entry.engines.len() - 1;
            drift = DriftAccumulator::new(entry.engines[entry.current].hdbn_params());
            Some(entry.current)
        } else {
            None
        };
        self.models[idx].drift = Some(drift);
        Ok(outcome)
    }

    /// Publishes `engine` as the next generation of `model` and makes it
    /// current — the manual counterpart of
    /// [`adapt_model`](Self::adapt_model) (e.g. a retrain from fresh
    /// ground truth). Live homes hot-swap lazily at their next push;
    /// returns the new generation index.
    ///
    /// # Errors
    /// [`ModelError::InvalidConfig`] on an unknown model or an engine
    /// whose strategy differs from the serving one's (streams could not
    /// swap onto it).
    pub fn publish_model(
        &mut self,
        model: &str,
        engine: Arc<CaceEngine>,
    ) -> Result<usize, ModelError> {
        let idx = self.model_index(model)?;
        let entry = &mut self.models[idx];
        let current = &entry.engines[entry.current];
        if engine.config().strategy != current.config().strategy {
            return Err(config_err(format!(
                "published engine's strategy does not match \
                 model `{model}`'s serving configuration"
            )));
        }
        entry.engines.push(engine);
        entry.current = entry.engines.len() - 1;
        if entry.policy.is_some() {
            entry.drift = Some(DriftAccumulator::new(
                entry.engines[entry.current].hdbn_params(),
            ));
        }
        Ok(entry.current)
    }

    /// Rolls `model` back (or forward) to an already-published
    /// generation. Live homes swap onto it lazily at their next push —
    /// the same fingerprint-directed migration as any other generation
    /// move. Generation indices are stable: publishing after a rollback
    /// appends, it never overwrites history.
    ///
    /// # Errors
    /// [`ModelError::InvalidConfig`] on an unknown model or generation.
    pub fn rollback_model(&mut self, model: &str, generation: usize) -> Result<(), ModelError> {
        let idx = self.model_index(model)?;
        let entry = &mut self.models[idx];
        if generation >= entry.engines.len() {
            return Err(config_err(format!(
                "model `{model}` has generations 0..={}, not {generation}",
                entry.engines.len() - 1
            )));
        }
        entry.current = generation;
        if entry.policy.is_some() {
            entry.drift = Some(DriftAccumulator::new(
                entry.engines[generation].hdbn_params(),
            ));
        }
        Ok(())
    }

    /// The currently served generation index of `model`.
    ///
    /// # Errors
    /// [`ModelError::InvalidConfig`] on an unknown model.
    pub fn model_generation(&self, model: &str) -> Result<usize, ModelError> {
        Ok(self.models[self.model_index(model)?].current)
    }

    /// Exports one generation of `model` as a versioned [`ModelRecord`]
    /// snapshot string — the archive format for roll forward/back across
    /// processes (pass it to [`import_model`](Self::import_model), or
    /// [`ModelRecord::from_snapshot_str`] directly).
    ///
    /// # Errors
    /// [`ModelError::InvalidConfig`] on an unknown model or generation.
    pub fn export_model(&self, model: &str, generation: usize) -> Result<String, ModelError> {
        let entry = &self.models[self.model_index(model)?];
        let engine = entry.engines.get(generation).ok_or_else(|| {
            config_err(format!(
                "model `{model}` has generations 0..={}, not {generation}",
                entry.engines.len() - 1
            ))
        })?;
        Ok(ModelRecord {
            name: entry.name.clone(),
            generation,
            engine: CaceEngine::clone(engine),
        }
        .to_snapshot_string())
    }

    /// Imports a [`ModelRecord`] snapshot: if the record's model name is
    /// already registered, its engine is published as the next (current)
    /// generation — a roll forward; otherwise the name is registered
    /// fresh with this engine as generation 0. Returns the generation
    /// index it now serves as (the record's own generation index is
    /// provenance from the exporting fleet, not an index here).
    ///
    /// # Errors
    /// [`ModelError::Persistence`] on snapshot verification failure;
    /// [`ModelError::InvalidConfig`] when publishing onto an existing
    /// model with a mismatched configuration.
    pub fn import_model(&mut self, snapshot: &str) -> Result<usize, ModelError> {
        let record = ModelRecord::from_snapshot_str(snapshot)?;
        let engine = Arc::new(record.engine);
        if self.models.iter().any(|m| m.name == record.name) {
            self.publish_model(&record.name, engine)
        } else {
            self.register_model(record.name, engine)?;
            Ok(0)
        }
    }

    /// Delivers one round of ticks, fanned out across shards in parallel.
    /// Outcomes are returned aligned with `ticks`. Within a shard, ticks
    /// apply in their `ticks` order; the shard grid is fixed — results
    /// are bit-identical under any thread count.
    ///
    /// A home may appear multiple times in one round (its ticks apply in
    /// order); a home with no tick this round is simply not listed.
    ///
    /// # Errors
    /// [`ModelError::InvalidConfig`] when any id is not routed — no tick
    /// is delivered in that case (per-home failures are *not* errors
    /// here; they come back as [`HomeRound::Failed`]).
    pub fn push_round(
        &mut self,
        ticks: &[(u64, &ObservedTick)],
    ) -> Result<Vec<HomeRound>, ModelError> {
        // Group input positions by shard first, so an unknown id aborts
        // the round before any home advances.
        let mut by_shard: Vec<Vec<(usize, usize)>> = vec![Vec::new(); self.shards.len()];
        for (pos, (id, _)) in ticks.iter().enumerate() {
            let shard = self.shard_of(*id);
            let slot = *self.shards[shard]
                .index
                .get(id)
                .ok_or_else(|| config_err(format!("home id {id} is not routed")))?;
            by_shard[shard].push((pos, slot));
        }
        let live_cap = self.live_cap;
        let views = self.serve_views();
        let views = &views;
        let mut work: Vec<(&mut Shard, Vec<(usize, usize)>)> =
            self.shards.iter_mut().zip(by_shard).collect();
        let per_shard: Vec<Vec<(usize, HomeRound)>> = work
            .par_iter_mut()
            .map(|(shard, work)| {
                work.iter()
                    .map(|&(pos, slot)| {
                        let round = shard.push(slot, views, ticks[pos].1);
                        shard.enforce_cap(live_cap);
                        (pos, round)
                    })
                    .collect()
            })
            .collect();
        // Every input position sits in exactly one shard's list, so
        // sorting by position realigns the outcomes with `ticks`.
        let mut outcomes: Vec<(usize, HomeRound)> = per_shard.into_iter().flatten().collect();
        outcomes.sort_unstable_by_key(|&(pos, _)| pos);
        Ok(outcomes.into_iter().map(|(_, round)| round).collect())
    }

    /// Finishes every home in parallel (rehydrating parked ones),
    /// returning per-home results **sorted by home id**: the
    /// [`StreamTail`] — the decisions not yet emitted, plus the session
    /// counters — for healthy homes, the quarantining error for faulted
    /// ones. The router keeps no decision history: a caller that wants a
    /// home's whole-session [`Recognition`](crate::Recognition) keeps the
    /// decisions [`push_round`](Self::push_round) returned and hands them
    /// to [`StreamTail::into_recognition`].
    ///
    /// Finishing never swaps: a parked home resumes under the generation
    /// its checkpoint fingerprint identifies (current or not), so the
    /// result is a pure continuation of the model that actually decoded
    /// its ticks.
    pub fn finish(self) -> Vec<(u64, Result<StreamTail, ModelError>)> {
        let Self { models, shards, .. } = self;
        let models = &models;
        let mut slot_lists: Vec<Vec<HomeSlot>> = shards.into_iter().map(|s| s.slots).collect();
        let per_shard: Vec<Vec<(u64, Result<StreamTail, ModelError>)>> = slot_lists
            .par_iter_mut()
            .map(|slots| {
                std::mem::take(slots)
                    .into_iter()
                    .map(|slot| {
                        let result = match slot.state {
                            SlotState::Quarantined(e) => Err(e),
                            SlotState::Live(stream) => stream.finish(),
                            SlotState::Parked(bytes) => ParkedStream::from_snapshot_bytes(&bytes)
                                .and_then(|parked| {
                                    let entry = &models[slot.model];
                                    let engine = entry
                                        .engines
                                        .iter()
                                        .find(|e| {
                                            e.params.fingerprint() == parked.model_fingerprint()
                                        })
                                        .unwrap_or(&entry.engines[entry.current]);
                                    resume_shared(engine, &parked)
                                })
                                .and_then(|stream| stream.finish()),
                        };
                        (slot.id, result)
                    })
                    .collect()
            })
            .collect();
        let mut out: Vec<(u64, Result<StreamTail, ModelError>)> =
            per_shard.into_iter().flatten().collect();
        out.sort_by_key(|(id, _)| *id);
        out
    }
}

impl Default for ShardedRouter {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::CaceConfig;
    use cace_behavior::{
        cace_grammar, generate_cace_dataset, session::train_test_split, Session, SessionConfig,
    };

    fn corpus() -> (Vec<Session>, Vec<Session>) {
        let sessions = generate_cace_dataset(
            &cace_grammar(),
            1,
            4,
            &SessionConfig::tiny().with_ticks(60),
            57,
        );
        train_test_split(sessions, 0.75)
    }

    fn arc_engine(train: &[Session]) -> Arc<CaceEngine> {
        Arc::new(CaceEngine::train(train, &CaceConfig::default()).unwrap())
    }

    #[test]
    fn registry_rejects_duplicates_and_unknowns() {
        let (train, _) = corpus();
        let engine = arc_engine(&train);
        let mut router = ShardedRouter::new();
        router.register_model("cace", Arc::clone(&engine)).unwrap();
        assert!(matches!(
            router.register_model("cace", Arc::clone(&engine)),
            Err(ModelError::InvalidConfig(_))
        ));
        assert!(matches!(
            router.add_home(1, "missing", Lag::Unbounded),
            Err(ModelError::InvalidConfig(_))
        ));
        router.add_home(1, "cace", Lag::Unbounded).unwrap();
        assert!(matches!(
            router.add_home(1, "cace", Lag::Unbounded),
            Err(ModelError::InvalidConfig(_))
        ));
        assert_eq!(router.len(), 1);
    }

    #[test]
    fn shard_assignment_is_a_pure_function_of_id_and_grid() {
        let a = ShardedRouter::with_shards(8);
        let b = ShardedRouter::with_shards(8);
        for id in 0..256 {
            assert_eq!(a.shard_of(id), b.shard_of(id));
            assert!(a.shard_of(id) < 8);
        }
        // All shards get some traffic from a plain id range.
        let hit: std::collections::HashSet<usize> = (0..256).map(|id| a.shard_of(id)).collect();
        assert_eq!(hit.len(), 8);
    }

    #[test]
    fn capped_router_parks_and_rehydrates_with_identical_decisions() {
        let (train, test) = corpus();
        let engine = arc_engine(&train);
        let lag = Lag::Fixed(4);
        let n_homes = 6u64;

        let mut capped = ShardedRouter::with_shards(2).with_live_cap(1);
        let mut uncapped = ShardedRouter::with_shards(2);
        for router in [&mut capped, &mut uncapped] {
            router.register_model("cace", Arc::clone(&engine)).unwrap();
            for id in 0..n_homes {
                router.add_home(id, "cace", lag).unwrap();
            }
        }
        let session = &test[0];
        for tick in &session.ticks {
            let round: Vec<(u64, &ObservedTick)> =
                (0..n_homes).map(|id| (id, &tick.observed)).collect();
            let a = capped.push_round(&round).unwrap();
            let b = uncapped.push_round(&round).unwrap();
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.decision(), y.decision());
                assert!(matches!(x, HomeRound::Advanced(_)));
            }
        }
        let stats = capped.stats();
        assert!(
            stats.parks() > 0 && stats.rehydrations() > 0,
            "a cap of 1 live home over 3 homes/shard must cycle: {stats:?}"
        );
        assert_eq!(uncapped.stats().parks(), 0);
        assert!(stats.pushes() > 0 && stats.mean_push_nanos() > 0);

        let a = capped.finish();
        let b = uncapped.finish();
        assert_eq!(a.len(), n_homes as usize);
        for ((id_a, rec_a), (id_b, rec_b)) in a.iter().zip(&b) {
            assert_eq!(id_a, id_b);
            let (rec_a, rec_b) = (rec_a.as_ref().unwrap(), rec_b.as_ref().unwrap());
            assert_eq!(rec_a.decisions, rec_b.decisions);
            assert_eq!(rec_a.states_explored, rec_b.states_explored);
            assert_eq!(rec_a.transition_ops, rec_b.transition_ops);
        }
    }

    #[test]
    fn lru_eviction_order_is_deterministic() {
        let (train, test) = corpus();
        let engine = arc_engine(&train);
        // One shard, cap 2: pushing A, B, C in order must park exactly
        // the least-recently-pushed home, every time.
        let mut router = ShardedRouter::with_shards(1).with_live_cap(2);
        router.register_model("cace", engine).unwrap();
        for id in [10, 20, 30] {
            router.add_home(id, "cace", Lag::Unbounded).unwrap();
        }
        // Registration order itself is LRU order: adding C over the cap
        // parked A (the oldest registration).
        assert_eq!(router.home_status(10), Some(HomeStatus::Parked));
        assert_eq!(router.home_status(20), Some(HomeStatus::Live));
        assert_eq!(router.home_status(30), Some(HomeStatus::Live));

        let tick = &test[0].ticks[0].observed;
        // Touch A: it rehydrates, and B — now the coldest — is parked.
        router.push_round(&[(10, tick)]).unwrap();
        assert_eq!(router.home_status(10), Some(HomeStatus::Live));
        assert_eq!(router.home_status(20), Some(HomeStatus::Parked));
        assert_eq!(router.home_status(30), Some(HomeStatus::Live));
        // Touch C then B: A is the coldest again.
        router.push_round(&[(30, tick), (20, tick)]).unwrap();
        assert_eq!(router.home_status(10), Some(HomeStatus::Parked));
        assert_eq!(router.home_status(20), Some(HomeStatus::Live));
        assert_eq!(router.home_status(30), Some(HomeStatus::Live));
        assert_eq!(router.stats().parks(), 3);
    }

    #[test]
    fn failing_push_quarantines_only_that_home() {
        let (train, test) = corpus();
        let engine = arc_engine(&train);
        let session = &test[0];
        let mut router = ShardedRouter::with_shards(1);
        router.register_model("cace", Arc::clone(&engine)).unwrap();
        for id in [7, 8, 9, 10] {
            router.add_home(id, "cace", Lag::Unbounded).unwrap();
        }
        let poison_at = 3usize;
        let slot = router.shards[0].index[&8];
        match &mut router.shards[0].slots[slot].state {
            SlotState::Live(stream) => stream.poison_tick = Some(poison_at),
            _ => panic!("a fresh home is live"),
        }
        // An unknown id aborts the round before any home advances.
        let tick = &session.ticks[0].observed;
        assert!(matches!(
            router.push_round(&[(7, tick), (99, tick)]),
            Err(ModelError::InvalidConfig(_))
        ));

        for (t, tick) in session.ticks.iter().enumerate() {
            let round = router
                .push_round(&[
                    (7, &tick.observed),
                    (8, &tick.observed),
                    (9, &tick.observed),
                ])
                .unwrap();
            // The healthy homes advance on every round, including the one
            // where their neighbour fails.
            assert!(matches!(round[0], HomeRound::Advanced(_)), "tick {t}");
            assert!(matches!(round[2], HomeRound::Advanced(_)), "tick {t}");
            match t.cmp(&poison_at) {
                std::cmp::Ordering::Less => {
                    assert!(matches!(round[1], HomeRound::Advanced(_)), "tick {t}")
                }
                std::cmp::Ordering::Equal => assert!(
                    matches!(
                        round[1],
                        HomeRound::Failed(ModelError::EmptyStateSpace { .. })
                    ),
                    "poisoned tick must fail, got {:?}",
                    round[1]
                ),
                std::cmp::Ordering::Greater => assert!(
                    matches!(round[1], HomeRound::Quarantined),
                    "tick {t}: failed home must stay quarantined"
                ),
            }
        }
        let quarantined = router.quarantined();
        assert_eq!(quarantined.len(), 1);
        assert_eq!(quarantined[0].0, 8);

        // The healthy homes finish with the exact batch answer, the
        // faulted home reports its error, and a home that never got a
        // tick reports its own empty-stream error — per home, never a
        // router-wide abort.
        let batch = engine.recognize(session).unwrap();
        for (id, result) in router.finish() {
            match id {
                7 | 9 => assert_eq!(result.unwrap().into_recognition(&[]).macros, batch.macros),
                8 => assert!(matches!(result, Err(ModelError::EmptyStateSpace { .. }))),
                10 => assert!(matches!(result, Err(ModelError::InsufficientData { .. }))),
                _ => panic!("unexpected home id {id}"),
            }
        }
    }

    #[test]
    fn tampered_parked_bytes_quarantine_only_that_home() {
        let (train, test) = corpus();
        let engine = arc_engine(&train);
        let mut router = ShardedRouter::with_shards(1);
        router.register_model("cace", Arc::clone(&engine)).unwrap();
        router.add_home(1, "cace", Lag::Unbounded).unwrap();
        router.add_home(2, "cace", Lag::Unbounded).unwrap();

        let session = &test[0];
        for tick in &session.ticks[..5] {
            router
                .push_round(&[(1, &tick.observed), (2, &tick.observed)])
                .unwrap();
        }
        // Corrupt home 1's parked bytes out-of-band, then re-import them.
        let mut bytes = router.export_home(1).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        let mut router2 = ShardedRouter::with_shards(1);
        router2.register_model("cace", Arc::clone(&engine)).unwrap();
        router2.import_home(1, "cace", bytes).unwrap();
        router2.add_home(2, "cace", Lag::Unbounded).unwrap();

        let round = router2
            .push_round(&[
                (1, &session.ticks[5].observed),
                (2, &session.ticks[5].observed),
            ])
            .unwrap();
        assert!(matches!(
            round[0],
            HomeRound::Failed(ModelError::Persistence { .. })
        ));
        assert!(matches!(round[1], HomeRound::Advanced(_)));
        // The fault sticks; the shard-mate keeps serving every round.
        let round = router2
            .push_round(&[
                (1, &session.ticks[6].observed),
                (2, &session.ticks[6].observed),
            ])
            .unwrap();
        assert!(matches!(round[0], HomeRound::Quarantined));
        assert!(matches!(round[1], HomeRound::Advanced(_)));
        assert_eq!(router2.quarantined().len(), 1);
        assert_eq!(router2.quarantined()[0].0, 1);
        let finished = router2.finish();
        assert!(finished[0].1.is_err());
        assert!(finished[1].1.is_ok());
    }

    #[test]
    fn repeated_ids_in_one_round_apply_in_input_order() {
        let (train, test) = corpus();
        let engine = arc_engine(&train);
        let mut once = ShardedRouter::with_shards(2);
        let mut split = ShardedRouter::with_shards(2);
        for router in [&mut once, &mut split] {
            router.register_model("cace", Arc::clone(&engine)).unwrap();
            for id in 0..2 {
                router.add_home(id, "cace", Lag::Fixed(0)).unwrap();
            }
        }
        let (t0, t1) = (&test[0].ticks[0].observed, &test[0].ticks[1].observed);
        let a = once.push_round(&[(0, t0), (1, t0), (0, t1)]).unwrap();
        let b0 = split.push_round(&[(0, t0), (1, t0)]).unwrap();
        let b1 = split.push_round(&[(0, t1)]).unwrap();
        assert_eq!(a[0].decision(), b0[0].decision());
        assert_eq!(a[1].decision(), b0[1].decision());
        assert_eq!(a[2].decision(), b1[0].decision());
        assert_eq!(a[2].decision().map(|d| d.tick), Some(1));
    }

    #[test]
    fn enforce_cap_repairs_a_missing_lru_entry_without_panicking() {
        let (train, test) = corpus();
        let engine = arc_engine(&train);
        let mut router = ShardedRouter::with_shards(1);
        router.register_model("cace", engine).unwrap();
        router.add_home(1, "cace", Lag::Unbounded).unwrap();
        router.add_home(2, "cace", Lag::Unbounded).unwrap();

        // Violate the invariant the old code `.expect`ed on: live homes
        // above the cap with an empty LRU queue. The shard must repair
        // itself — park the stalest live home — not panic.
        router.shards[0].lru.clear();
        router.shards[0].enforce_cap(1);
        assert_eq!(router.home_status(1), Some(HomeStatus::Parked));
        assert_eq!(router.home_status(2), Some(HomeStatus::Live));
        assert_eq!(router.stats().lru_repairs(), 1);

        // Both homes keep serving afterwards (1 via rehydration).
        let tick = &test[0].ticks[0].observed;
        let round = router.push_round(&[(1, tick), (2, tick)]).unwrap();
        assert!(matches!(round[0], HomeRound::Advanced(_)));
        assert!(matches!(round[1], HomeRound::Advanced(_)));

        // Nothing live at all + empty queue: a no-op, not a loop or panic.
        router.park_home(1).unwrap();
        router.park_home(2).unwrap();
        router.shards[0].lru.clear();
        router.shards[0].enforce_cap(0);
        assert_eq!(router.stats().lru_repairs(), 1);
    }

    #[test]
    fn uncapped_lru_queue_stays_bounded_and_live_count_tracks_slots() {
        let (train, test) = corpus();
        let engine = arc_engine(&train);
        let mut router = ShardedRouter::with_shards(1);
        router.register_model("cace", engine).unwrap();
        let homes = [1, 2, 3, 4];
        for id in homes {
            router.add_home(id, "cace", Lag::Fixed(2)).unwrap();
        }
        let ticks = &test[0].ticks;
        for r in 0..10_000 / homes.len() {
            let tick = &ticks[r % ticks.len()].observed;
            let round: Vec<(u64, &ObservedTick)> = homes.iter().map(|&id| (id, tick)).collect();
            router.push_round(&round).unwrap();
            let shard = &router.shards[0];
            assert!(shard.lru.len() <= 2 * shard.slots.len(), "round {r}");
        }
        let recount = |router: &ShardedRouter| {
            let shard = &router.shards[0];
            (
                shard.live,
                shard.slots.iter().filter(|s| s.is_live()).count(),
            )
        };
        assert_eq!(recount(&router), (4, 4));
        router.park_home(2).unwrap();
        assert_eq!(recount(&router), (3, 3));
        router.shards[0].enforce_cap(1);
        assert_eq!(recount(&router), (1, 1));
        let tick = &ticks[0].observed;
        router.push_round(&[(2, tick)]).unwrap();
        assert_eq!(recount(&router), (2, 2));
    }

    #[test]
    fn hot_swap_to_published_twin_is_bit_identical() {
        let (train, test) = corpus();
        let engine = arc_engine(&train);
        // An independently trained engine over the same corpus: distinct
        // allocation, identical parameters — the full swap machinery runs
        // without moving a single decision.
        let twin = arc_engine(&train);
        let lag = Lag::Fixed(4);
        let n_homes = 6u64;

        // No live cap: every home stays live, so the publish exercises
        // the *live* swap path (capped parked homes with an identical
        // fingerprint would rehydrate without a migration instead).
        let mut swapped = ShardedRouter::with_shards(2);
        let mut control = ShardedRouter::with_shards(2);
        for router in [&mut swapped, &mut control] {
            router.register_model("cace", Arc::clone(&engine)).unwrap();
            for id in 0..n_homes {
                router.add_home(id, "cace", lag).unwrap();
            }
        }
        let session = &test[0];
        for (t, tick) in session.ticks.iter().enumerate() {
            if t == 20 {
                let generation = swapped.publish_model("cace", Arc::clone(&twin)).unwrap();
                assert_eq!(generation, 1);
                assert_eq!(swapped.model_generation("cace").unwrap(), 1);
            }
            let round: Vec<(u64, &ObservedTick)> =
                (0..n_homes).map(|id| (id, &tick.observed)).collect();
            let a = swapped.push_round(&round).unwrap();
            let b = control.push_round(&round).unwrap();
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.decision(), y.decision(), "tick {t}");
            }
        }
        // Identical parameters share a fingerprint, so parked homes
        // resume without a migration; every *live* home swapped once.
        assert!(swapped.stats().swaps() > 0);
        assert_eq!(control.stats().swaps(), 0);
        let a = swapped.finish();
        let b = control.finish();
        for ((id_a, rec_a), (id_b, rec_b)) in a.iter().zip(&b) {
            assert_eq!(id_a, id_b);
            let (rec_a, rec_b) = (rec_a.as_ref().unwrap(), rec_b.as_ref().unwrap());
            assert_eq!(rec_a.decisions, rec_b.decisions);
            assert_eq!(rec_a.states_explored, rec_b.states_explored);
        }
    }

    #[test]
    fn adapt_model_publishes_generations_and_rolls_back() {
        let (train, test) = corpus();
        let engine = arc_engine(&train);
        let mut router = ShardedRouter::with_shards(2);
        router.register_model("cace", Arc::clone(&engine)).unwrap();
        for id in 0..3u64 {
            router.add_home(id, "cace", Lag::Fixed(4)).unwrap();
        }

        // No policy yet: adapt_model is a config error, not a panic.
        assert!(matches!(
            router.adapt_model("cace"),
            Err(ModelError::InvalidConfig(_))
        ));
        let policy = AdaptationPolicy {
            window_ticks: 10,
            min_windows: 2,
            laplace: 0.5,
        };
        router.enable_adaptation("cace", policy).unwrap();
        // Nothing captured yet → below min_windows → no publish.
        assert_eq!(router.adapt_model("cace").unwrap(), None);
        assert_eq!(router.model_generation("cace").unwrap(), 0);

        let session = &test[0];
        for tick in &session.ticks {
            let round: Vec<(u64, &ObservedTick)> = (0..3).map(|id| (id, &tick.observed)).collect();
            router.push_round(&round).unwrap();
        }
        // 60 ticks / 10-tick windows × 3 homes ≫ min_windows.
        let generation = router.adapt_model("cace").unwrap();
        assert_eq!(generation, Some(1));
        assert_eq!(router.model_generation("cace").unwrap(), 1);

        // The next round lazily hot-swaps every live home.
        let before = router.stats().swaps();
        let round: Vec<(u64, &ObservedTick)> =
            (0..3).map(|id| (id, &session.ticks[0].observed)).collect();
        let outcomes = router.push_round(&round).unwrap();
        assert!(outcomes.iter().all(|r| matches!(r, HomeRound::Advanced(_))));
        assert!(router.stats().swaps() > before);

        // Roll back to the as-trained generation; homes swap back too.
        router.rollback_model("cace", 0).unwrap();
        assert_eq!(router.model_generation("cace").unwrap(), 0);
        let before = router.stats().swaps();
        let outcomes = router.push_round(&round).unwrap();
        assert!(outcomes.iter().all(|r| matches!(r, HomeRound::Advanced(_))));
        assert!(router.stats().swaps() > before);
        assert!(matches!(
            router.rollback_model("cace", 9),
            Err(ModelError::InvalidConfig(_))
        ));

        for (_, result) in router.finish() {
            assert!(result.is_ok());
        }
    }

    #[test]
    fn fingerprint_directed_migration_rolls_imported_homes_forward() {
        let (train, test) = corpus();
        let engine_a = arc_engine(&train);
        let other = generate_cace_dataset(
            &cace_grammar(),
            1,
            4,
            &SessionConfig::tiny().with_ticks(60),
            58,
        );
        let (other_train, _) = train_test_split(other, 0.75);
        let engine_b = arc_engine(&other_train);
        assert_ne!(
            engine_a.hdbn_params().fingerprint(),
            engine_b.hdbn_params().fingerprint()
        );
        let session = &test[0];

        // A home checkpointed under model A...
        let mut origin = ShardedRouter::new();
        origin
            .register_model("cace", Arc::clone(&engine_a))
            .unwrap();
        origin.add_home(5, "cace", Lag::Unbounded).unwrap();
        for tick in &session.ticks[..10] {
            origin.push_round(&[(5, &tick.observed)]).unwrap();
        }
        let bytes = origin.export_home(5).unwrap();

        // ...quarantines in a fleet that has never seen A (unknown
        // fingerprint — never a silent wrong-model resume)...
        let mut foreign = ShardedRouter::new();
        foreign
            .register_model("cace", Arc::clone(&engine_b))
            .unwrap();
        foreign.import_home(5, "cace", bytes.clone()).unwrap();
        let round = foreign
            .push_round(&[(5, &session.ticks[10].observed)])
            .unwrap();
        assert!(matches!(
            round[0],
            HomeRound::Failed(ModelError::Persistence { .. })
        ));

        // ...but migrates explicitly in a fleet where A is a *known*
        // generation that B rolled forward from.
        let mut fleet = ShardedRouter::new();
        fleet.register_model("cace", Arc::clone(&engine_a)).unwrap();
        fleet.publish_model("cace", Arc::clone(&engine_b)).unwrap();
        fleet.import_home(5, "cace", bytes).unwrap();
        let round = fleet
            .push_round(&[(5, &session.ticks[10].observed)])
            .unwrap();
        assert!(matches!(round[0], HomeRound::Advanced(_)));
        assert_eq!(fleet.stats().swaps(), 1);
        assert_eq!(fleet.home_status(5), Some(HomeStatus::Live));
    }

    #[test]
    fn model_records_round_trip_between_fleets() {
        let (train, test) = corpus();
        let engine = arc_engine(&train);
        let mut origin = ShardedRouter::new();
        origin.register_model("cace", Arc::clone(&engine)).unwrap();
        let record = origin.export_model("cace", 0).unwrap();
        assert!(record.starts_with("CACE-SNAPSHOT v3 fnv1a64="));
        assert!(matches!(
            origin.export_model("cace", 1),
            Err(ModelError::InvalidConfig(_))
        ));

        // Unknown name → registered fresh as generation 0.
        let mut fresh = ShardedRouter::new();
        assert_eq!(fresh.import_model(&record).unwrap(), 0);
        fresh.add_home(1, "cace", Lag::Unbounded).unwrap();
        let round = fresh
            .push_round(&[(1, &test[0].ticks[0].observed)])
            .unwrap();
        assert!(matches!(round[0], HomeRound::Advanced(_)));

        // Known name → published as the next (current) generation.
        assert_eq!(fresh.import_model(&record).unwrap(), 1);
        assert_eq!(fresh.model_generation("cace").unwrap(), 1);
    }

    #[test]
    fn export_import_hands_a_home_over_bit_identically() {
        let (train, test) = corpus();
        let engine = arc_engine(&train);
        let session = &test[0];
        let lag = Lag::Unbounded;

        let mut origin = ShardedRouter::new();
        origin.register_model("cace", Arc::clone(&engine)).unwrap();
        origin.add_home(99, "cace", lag).unwrap();
        for tick in &session.ticks[..30] {
            origin.push_round(&[(99, &tick.observed)]).unwrap();
        }
        let bytes = origin.export_home(99).unwrap();
        assert_eq!(origin.home_status(99), Some(HomeStatus::Parked));

        let mut target = ShardedRouter::new();
        target.register_model("cace", Arc::clone(&engine)).unwrap();
        target.import_home(99, "cace", bytes).unwrap();
        for tick in &session.ticks[30..] {
            target.push_round(&[(99, &tick.observed)]).unwrap();
        }
        let finished = target.finish();
        let batch = engine.recognize(session).unwrap();
        let rec = finished[0].1.clone().unwrap().into_recognition(&[]);
        assert_eq!(rec.macros, batch.macros);
        assert_eq!(rec.states_explored, batch.states_explored);
        assert_eq!(rec.transition_ops, batch.transition_ops);
    }
}
