//! The CACE engine: training and run-time recognition.

use std::sync::Arc;

use cace_behavior::Session;
use cace_features::SessionFeatures;
use cace_hdbn::{
    fit_em_shared as hdbn_fit_em_shared, DecoderConfig, EmConfig, HdbnConfig, HdbnParams, Lag,
    TickInput,
};
use cace_mining::constraint::{ConstraintMiner, LabeledSequence};
use cace_mining::rules::mine_negative_rules;
use cace_mining::{
    initial_cace_rules, mine_rules, AprioriConfig, AtomSpace, HierarchicalStats, Mask,
    PruningEngine, RuleSet,
};
use cace_model::{ModelError, StateMask};

use crate::classifiers::{extract_all, MicroClassifiers};
use crate::evidence::{EvidenceConfig, PrevState};
use crate::nh;
use crate::statespace::{PreparedTick, TickPreparer};
use crate::strategy::Strategy;
use crate::stream::stream_session;
use crate::transactions::corpus;

/// Engine configuration.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct CaceConfig {
    /// Pruning strategy (Fig 11).
    pub strategy: Strategy,
    /// Modality mask (Fig 8a ablations).
    pub mask: StateMask,
    /// Maximum micro candidates per user per tick for *unpruned* spaces
    /// (the beam that keeps the coupled NCS decoder finite).
    pub beam: usize,
    /// Micro-candidate cap for the exhaustive NH strategy ("all possible
    /// states in the state space"); much larger than `beam` because NH
    /// refuses to exploit any structure to shrink its trellis.
    pub nh_beam: usize,
    /// Decode-time configuration. Every decoder is exact (with
    /// dominance pruning inside each step), so it has no settings; it
    /// round-trips through engine snapshots as the exact decoder.
    pub decoder: DecoderConfig,
    /// Apriori thresholds (paper defaults: 4 % / 99 %).
    pub apriori: AprioriConfig,
    /// Whether to seed the rule set with the Base-application initial rules
    /// (Fig 12, CACE vocabulary only).
    pub use_initial_rules: bool,
    /// Whether to refine parameters with EM after the constraint miner.
    pub run_em: bool,
    /// EM schedule when `run_em` is set.
    pub em: EmConfig,
    /// Evidence-promotion thresholds.
    pub evidence: EvidenceConfig,
    /// Training-tick stride for the classifiers.
    pub classifier_stride: usize,
    /// Inter-user coupling weight for coupled strategies (Augmentation 3
    /// ablation; `1.0` = the mined co-occurrence CPT, `0.0` = independent
    /// chains even under NCS/C2).
    pub coupling_weight: f64,
    /// Hierarchy weight (Augmentation 2 ablation; scales the
    /// `P(micro | macro)` factors).
    pub hierarchy_weight: f64,
    /// RNG seed for classifier training.
    pub seed: u64,
}

impl Default for CaceConfig {
    fn default() -> Self {
        Self {
            strategy: Strategy::CorrelationConstraint,
            mask: StateMask::FULL,
            beam: 8,
            nh_beam: 64,
            decoder: DecoderConfig::exact(),
            apriori: AprioriConfig {
                max_itemset: 3,
                ..AprioriConfig::paper_default()
            },
            use_initial_rules: false,
            run_em: false,
            em: EmConfig::default(),
            evidence: EvidenceConfig::default(),
            classifier_stride: 2,
            coupling_weight: 1.0,
            hierarchy_weight: 1.0,
            seed: 0xCACE,
        }
    }
}

impl CaceConfig {
    /// Builder-style strategy override.
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Builder-style mask override.
    pub fn with_mask(mut self, mask: StateMask) -> Self {
        self.mask = mask;
        self
    }

    /// Builder-style decoder override.
    pub fn with_decoder(mut self, decoder: DecoderConfig) -> Self {
        self.decoder = decoder;
        self
    }
}

/// Output of one recognition run.
#[derive(Debug, Clone, PartialEq)]
pub struct Recognition {
    /// Decoded macro activities per user per tick.
    pub macros: [Vec<usize>; 2],
    /// Σ joint states instantiated (overhead metric 1).
    pub states_explored: u64,
    /// Σ transition evaluations (overhead metric 2).
    pub transition_ops: u64,
    /// Wall-clock seconds spent in recognition.
    pub wall_seconds: f64,
    /// Mean per-tick joint candidate-space size after pruning.
    pub mean_joint_size: f64,
    /// Total rule firings during pruning.
    pub rules_fired: u64,
}

impl Recognition {
    /// Tick-level accuracy against a session's ground truth.
    pub fn accuracy(&self, session: &Session) -> f64 {
        let mut correct = 0usize;
        let mut total = 0usize;
        for u in 0..2 {
            for (t, tick) in session.ticks.iter().enumerate() {
                total += 1;
                if self.macros[u][t] == tick.labels[u] {
                    correct += 1;
                }
            }
        }
        correct as f64 / total.max(1) as f64
    }
}

/// Prepares every tick of `session` through `preparer`, in order.
fn prepare_session(
    preparer: &TickPreparer<'_>,
    session: &Session,
    features: &SessionFeatures,
) -> Vec<TickInput> {
    let mut prev = [PrevState::default(), PrevState::default()];
    session
        .ticks
        .iter()
        .zip(&features.per_tick)
        .map(|(tick, f)| {
            let mut prepared = PreparedTick::default();
            preparer.prepare(&tick.observed, f, &mut prev, &mut prepared);
            prepared.input
        })
        .collect()
}

/// A trained CACE engine.
#[derive(Debug, Clone)]
pub struct CaceEngine {
    pub(crate) config: CaceConfig,
    pub(crate) space: AtomSpace,
    pub(crate) n_macro: usize,
    pub(crate) has_gestural: bool,
    pub(crate) classifiers: MicroClassifiers,
    pub(crate) rules: RuleSet,
    pub(crate) pruner: Option<PruningEngine>,
    pub(crate) stats: HierarchicalStats,
    pub(crate) params: Arc<HdbnParams>,
    pub(crate) nh_log_trans: nh::FlatTable,
}

impl CaceEngine {
    /// Trains the full pipeline on labeled sessions.
    ///
    /// # Errors
    /// Propagates classifier, miner, and parameter-construction failures;
    /// rejects an empty training set.
    pub fn train(sessions: &[Session], config: &CaceConfig) -> Result<Self, ModelError> {
        let Some(first) = sessions.first() else {
            return Err(ModelError::InsufficientData {
                what: "engine training".into(),
                available: 0,
                required: 1,
            });
        };
        let n_macro = first.n_activities;
        let has_gestural = first.has_gestural;
        // The miners and the NH transition counts index tables by label.
        let mut labels = sessions
            .iter()
            .flat_map(|s| &s.ticks)
            .flat_map(|t| t.labels);
        if labels.any(|l| l >= n_macro) {
            return Err(ModelError::InvalidConfig("label out of range".into()));
        }
        if n_macro > Mask::CAPACITY {
            return Err(ModelError::InvalidConfig(format!(
                "{n_macro} macro activities: a candidate mask holds at most {}",
                Mask::CAPACITY
            )));
        }
        let space = AtomSpace {
            n_macro,
            ..AtomSpace::cace()
        };

        // Context planar.
        let features = extract_all(sessions);
        let classifiers = MicroClassifiers::train(
            sessions,
            &features,
            n_macro,
            config.classifier_stride,
            config.seed,
        )?;

        // Correlation miner.
        let mut rules = if config.strategy.uses_correlation_pruning() {
            let txns = corpus(&space, sessions);
            let mut mined = mine_rules(&txns, &space, &config.apriori);
            // Keep only rules that carry runtime pruning power: current-time
            // macro/location/room consequents, excluding the structural
            // location→room tautologies (a sub-location trivially implies
            // its room). This is the engine-side half of the paper's
            // "redundant (e.g., transitive) rules were subsequently merged".
            let filter_space = space.clone();
            mined.retain_rules(|r| {
                let Some(cons) = filter_space.decode(r.consequent) else {
                    return false;
                };
                if cons.lag != 0 {
                    return false;
                }
                match cons.atom {
                    cace_mining::Atom::Macro(_) => true,
                    cace_mining::Atom::Location(_) => true,
                    cace_mining::Atom::Room(room) => !r.antecedent.iter().any(|&a| {
                        matches!(
                            filter_space.decode(a),
                            Some(item) if item.user == cons.user
                                && item.lag == 0
                                && matches!(item.atom,
                                    cace_mining::Atom::Location(l)
                                        if filter_space.loc_to_room[l as usize]
                                            == room as usize)
                        )
                    }),
                    _ => false,
                }
            });
            // Exclusivities only need each trigger to be nonvacuously
            // frequent; half of minSup keeps short-but-regular activities
            // (bathrooming) in scope.
            let negatives = mine_negative_rules(&txns, &space, config.apriori.min_support * 0.5);
            mined.set_negatives(negatives);
            mined
        } else {
            RuleSet::new(space.clone(), Vec::new())
        };
        if config.use_initial_rules && n_macro == 11 && has_gestural {
            let initial = initial_cace_rules();
            let mut negatives = rules.negatives().to_vec();
            for neg in initial.negatives() {
                if !negatives.contains(neg) {
                    negatives.push(*neg);
                }
            }
            rules.extend_rules(initial.rules().iter().cloned());
            rules.set_negatives(negatives);
        }
        if config.strategy.per_user_rules_only() {
            let filtered: Vec<_> = rules
                .rules()
                .iter()
                .filter(|r| {
                    let users: Vec<u8> = r
                        .antecedent
                        .iter()
                        .chain(std::iter::once(&r.consequent))
                        .filter_map(|&i| space.decode(i))
                        .map(|item| item.user)
                        .collect();
                    users.windows(2).all(|w| w[0] == w[1])
                })
                .cloned()
                .collect();
            // NCR keeps a user's own micro→macro exclusions but loses the
            // cross-user spatial exclusivities.
            let negatives: Vec<_> = rules
                .negatives()
                .iter()
                .filter(
                    |neg| match (space.decode(neg.if_item), space.decode(neg.then_not)) {
                        (Some(a), Some(b)) => a.user == b.user,
                        _ => false,
                    },
                )
                .copied()
                .collect();
            rules = RuleSet::new(space.clone(), filtered);
            rules.set_negatives(negatives);
        }
        let pruner = if config.strategy.uses_correlation_pruning() {
            Some(PruningEngine::new(rules.clone()))
        } else {
            None
        };

        // Constraint miner.
        let miner = ConstraintMiner {
            n_macro,
            ..ConstraintMiner::cace()
        };
        let sequences: Vec<LabeledSequence> = sessions
            .iter()
            .map(|s| {
                let mut seq = LabeledSequence::default();
                for u in 0..2 {
                    seq.macros[u] = s.labels_of(u);
                    seq.posturals[u] = s
                        .ticks
                        .iter()
                        .map(|t| t.truth[u].micro.postural.index())
                        .collect();
                    seq.locations[u] = s
                        .ticks
                        .iter()
                        .map(|t| t.truth[u].micro.location.index())
                        .collect();
                    seq.gesturals[u] = if s.has_gestural {
                        s.ticks
                            .iter()
                            .map(|t| t.truth[u].micro.gestural.index())
                            .collect()
                    } else {
                        Vec::new()
                    };
                }
                seq
            })
            .collect();
        let stats = miner.mine(&sequences)?;

        let hdbn_config = HdbnConfig {
            coupling_weight: if config.strategy.coupled() {
                config.coupling_weight
            } else {
                0.0
            },
            hierarchy_weight: config.hierarchy_weight,
            ..HdbnConfig::default()
        };
        let params = HdbnParams::new(stats.clone(), hdbn_config)?;

        // NH flat transition table.
        let label_seqs: Vec<Vec<usize>> = sessions
            .iter()
            .flat_map(|s| [s.labels_of(0), s.labels_of(1)])
            .collect();
        let nh_log_trans = {
            let mut table = vec![vec![0.0; n_macro]; n_macro];
            let mut counts = vec![vec![0.5f64; n_macro]; n_macro];
            for seq in &label_seqs {
                for w in seq.windows(2) {
                    counts[w[0]][w[1]] += 1.0;
                }
            }
            for (row, crow) in table.iter_mut().zip(&counts) {
                let total: f64 = crow.iter().sum();
                for (slot, &c) in row.iter_mut().zip(crow) {
                    *slot = (c / total).ln();
                }
            }
            nh::FlatTable::from_rows(&table)
        };

        let mut engine = Self {
            config: config.clone(),
            space,
            n_macro,
            has_gestural,
            classifiers,
            rules,
            pruner,
            stats,
            params: Arc::new(params),
            nh_log_trans,
        };

        // Optional EM refinement over the training tick inputs. The initial
        // tables are lent to EM through the same `Arc` the engine serves
        // from; EM's E-step fans sequences across cores and only the
        // M-step allocates fresh tables.
        if config.run_em && config.strategy.hierarchical() {
            let em_inputs: Vec<Vec<TickInput>> = sessions
                .iter()
                .zip(&features)
                .map(|(s, f)| prepare_session(&engine.tick_preparer(config.beam, false), s, f))
                .collect();
            let outcome = hdbn_fit_em_shared(Arc::clone(&engine.params), &em_inputs, &config.em)?;
            engine.params = Arc::new(outcome.params);
        }

        Ok(engine)
    }

    /// The mined rule set (Table IV).
    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }

    /// The trained (possibly EM-refined) HDBN parameters this engine
    /// decodes with — including their dense
    /// [`ScoreTables`](cace_hdbn::ScoreTables).
    pub fn hdbn_params(&self) -> &Arc<HdbnParams> {
        &self.params
    }

    /// The decoder-ready tick inputs this engine's recognition path would
    /// feed its trellis for `session` — pruned with the standard beam for
    /// NCR/C2, unpruned for NCS, unpruned with the NH beam for NH.
    ///
    /// These are the inputs each [`recognize`](Self::recognize) push
    /// prepares, collected for the whole session so differential suites
    /// and benches can drive reference decoders over exactly the engine's
    /// state spaces.
    pub fn tick_inputs(&self, session: &Session) -> Vec<TickInput> {
        let features = cace_features::extract_session(session);
        prepare_session(&self.runtime_preparer(), session, &features)
    }

    /// The constraint-mined statistics.
    pub fn stats(&self) -> &HierarchicalStats {
        &self.stats
    }

    /// The atom space in use.
    pub fn space(&self) -> &AtomSpace {
        &self.space
    }

    /// Number of macro activities.
    pub fn n_macro(&self) -> usize {
        self.n_macro
    }

    /// The configuration this engine was trained with (and serves with —
    /// snapshots persist it verbatim, decoder settings included).
    pub fn config(&self) -> &CaceConfig {
        &self.config
    }

    /// A copy of this engine serving with a different decoder
    /// configuration. The configuration is not trained state — every
    /// classifier, rule, and CPT is shared unchanged (parameters via
    /// `Arc`).
    pub fn with_decoder(&self, decoder: DecoderConfig) -> Self {
        let mut serving = self.clone();
        serving.config.decoder = decoder;
        serving
    }

    /// A copy of this engine serving with different HDBN parameters —
    /// the **adaptation constructor**: the incremental EM loop
    /// re-estimates CPTs from drift windows
    /// ([`cace_hdbn::DriftAccumulator::reestimate`]) and this grafts the
    /// result onto the trained engine. Everything not re-estimated —
    /// classifiers, mined rules, pruning engine, NH baseline tables,
    /// atom space — is shared unchanged, so the new engine drops into a
    /// live fleet exactly like the one it replaces.
    ///
    /// # Errors
    /// [`ModelError::InvalidConfig`] if `params` was built for a
    /// different vocabulary (its dimensions must match this engine's
    /// atom space) or a different decoder configuration.
    pub fn with_params(&self, params: HdbnParams) -> Result<Self, ModelError> {
        let same_dims = params.stats.n_macro == self.space.n_macro
            && params.stats.n_postural == self.space.n_postural
            && params.stats.n_gestural == self.space.n_gestural
            && params.stats.n_location == self.space.n_location;
        if !same_dims {
            return Err(ModelError::InvalidConfig(format!(
                "adapted parameters are over a {}x{}x{}x{} vocabulary, \
                 engine serves {}x{}x{}x{}",
                params.stats.n_macro,
                params.stats.n_postural,
                params.stats.n_gestural,
                params.stats.n_location,
                self.space.n_macro,
                self.space.n_postural,
                self.space.n_gestural,
                self.space.n_location,
            )));
        }
        if params.config != self.params.config {
            return Err(ModelError::InvalidConfig(
                "adapted parameters carry a different HDBN config \
                 (coupling/decoder settings must match the serving engine)"
                    .to_string(),
            ));
        }
        let mut serving = self.clone();
        serving.stats = params.stats.clone();
        serving.params = Arc::new(params);
        Ok(serving)
    }

    /// Upper bound on this engine's per-tick decoder-frontier size (see
    /// [`Strategy::frontier_bound`]).
    pub fn frontier_bound(&self) -> usize {
        self.config
            .strategy
            .frontier_bound(self.n_macro, self.config.beam, self.config.nh_beam)
    }

    /// The shared per-tick preparation pipeline, configured for this
    /// engine's strategy. `use_pruner` selects the correlation-pruning
    /// variant (requires a pruning strategy); `beam` is the per-user
    /// micro-candidate cap.
    pub(crate) fn tick_preparer(&self, beam: usize, use_pruner: bool) -> TickPreparer<'_> {
        TickPreparer {
            space: &self.space,
            classifiers: &self.classifiers,
            pruner: if use_pruner {
                Some(self.pruner.as_ref().expect("pruning strategy"))
            } else {
                None
            },
            mask: self.config.mask,
            has_gestural: self.has_gestural,
            beam,
            evidence: self.config.evidence,
        }
    }

    /// The preparer [`tick_preparer`](Self::tick_preparer) builds, under
    /// modality mask `mask` instead of the configured one — for the
    /// reference preparation of the differential suites.
    #[cfg(feature = "testkit")]
    pub fn preparer(&self, beam: usize, use_pruner: bool, mask: StateMask) -> TickPreparer<'_> {
        TickPreparer {
            mask,
            ..self.tick_preparer(beam, use_pruner)
        }
    }

    /// The preparer matching this engine's recognition path: pruned with
    /// the standard beam for NCR/C2, unpruned with the NH beam for NH,
    /// unpruned with the standard beam for NCS.
    pub(crate) fn runtime_preparer(&self) -> TickPreparer<'_> {
        match self.config.strategy {
            Strategy::NaiveHmm => self.tick_preparer(self.config.nh_beam, false),
            Strategy::NaiveConstraint => self.tick_preparer(self.config.beam, false),
            Strategy::NaiveCorrelation | Strategy::CorrelationConstraint => {
                self.tick_preparer(self.config.beam, true)
            }
        }
    }

    /// Runs recognition on one session: every tick is pushed through
    /// [`stream`](Self::stream) under [`Lag::Unbounded`], which emits
    /// nothing mid-stream, so [`finish`](crate::StreamingRecognizer::finish)
    /// decodes the whole session. `wall_seconds` is the summed push and
    /// finish time.
    ///
    /// # Errors
    /// Propagates decoding failures: the first tick with an emptied state
    /// space ([`ModelError::EmptyStateSpace`]), or
    /// [`ModelError::InsufficientData`] for an empty session.
    pub fn recognize(&self, session: &Session) -> Result<Recognition, ModelError> {
        stream_session(self, session, Lag::Unbounded).map(|(_, recognition)| recognition)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cace_behavior::{
        cace_grammar, generate_cace_dataset, session::train_test_split, SessionConfig,
    };
    use cace_mining::CandidateTick;

    fn dataset(n: usize, ticks: usize, seed: u64) -> Vec<Session> {
        let g = cace_grammar();
        generate_cace_dataset(&g, 1, n, &SessionConfig::tiny().with_ticks(ticks), seed)
    }

    #[test]
    fn c2_engine_trains_and_recognizes_well() {
        let sessions = dataset(4, 150, 11);
        let (train, test) = train_test_split(sessions, 0.75);
        let engine = CaceEngine::train(&train, &CaceConfig::default()).unwrap();
        assert!(!engine.rules().is_empty(), "rules should be mined");
        let rec = engine.recognize(&test[0]).unwrap();
        let acc = rec.accuracy(&test[0]);
        assert!(acc > 0.5, "C2 accuracy too low: {acc}");
        assert!(rec.rules_fired > 0, "pruning should fire rules");
        assert!(rec.mean_joint_size < CandidateTick::full(engine.space()).joint_size() as f64);
    }

    #[test]
    fn strategies_all_run() {
        let sessions = dataset(3, 100, 12);
        let (train, test) = train_test_split(sessions, 0.67);
        for strategy in Strategy::ALL {
            let cfg = CaceConfig::default().with_strategy(strategy);
            let engine = CaceEngine::train(&train, &cfg).unwrap();
            let rec = engine.recognize(&test[0]).unwrap();
            assert_eq!(rec.macros[0].len(), test[0].len(), "{strategy}");
            assert!(rec.wall_seconds >= 0.0);
        }
    }

    #[test]
    fn c2_explores_fewer_states_than_ncs() {
        let sessions = dataset(3, 120, 13);
        let (train, test) = train_test_split(sessions, 0.67);
        let ncs = CaceEngine::train(
            &train,
            &CaceConfig::default().with_strategy(Strategy::NaiveConstraint),
        )
        .unwrap();
        let c2 = CaceEngine::train(&train, &CaceConfig::default()).unwrap();
        let rec_ncs = ncs.recognize(&test[0]).unwrap();
        let rec_c2 = c2.recognize(&test[0]).unwrap();
        assert!(
            rec_c2.transition_ops * 2 < rec_ncs.transition_ops,
            "C2 ops {} vs NCS ops {}",
            rec_c2.transition_ops,
            rec_ncs.transition_ops
        );
    }

    /// NH's transition rows `rows[ap][a] = log P(a | ap)`, counted from the
    /// training labels with a 0.5 pseudo-count — built here, not read from
    /// the engine's `FlatTable`.
    fn nh_reference_rows(train: &[Session], n: usize) -> Vec<Vec<f64>> {
        let mut counts = vec![vec![0.5f64; n]; n];
        for session in train {
            for u in 0..2 {
                for w in session.labels_of(u).windows(2) {
                    counts[w[0]][w[1]] += 1.0;
                }
            }
        }
        counts
            .iter()
            .map(|row| {
                let total: f64 = row.iter().sum();
                row.iter().map(|&c| (c / total).ln()).collect()
            })
            .collect()
    }

    /// The dense NH reference for one user: `(macro path, states explored,
    /// transition ops)` of a flat Viterbi over every (macro, candidate)
    /// state of every tick — no dominance, no arena — with
    /// `naive_single_viterbi`'s fold order and tie-breaking: sources in
    /// ascending order, strict `>`, last maximum at termination.
    fn naive_flat_viterbi(
        rows: &[Vec<f64>],
        inputs: &[TickInput],
        macro_lp: &[[Vec<f64>; 2]],
        user: usize,
    ) -> (Vec<usize>, u64, u64) {
        // Per tick: (macro, emission) for each state, macro-major.
        let states = |t: usize| -> Vec<(usize, f64)> {
            let input = &inputs[t];
            let lp = &macro_lp[t][user];
            (0..rows.len())
                .flat_map(|a| {
                    input.candidates[user]
                        .iter()
                        .map(move |c| (a, lp[a] + input.bonus(a) + c.obs_loglik))
                })
                .collect()
        };
        let mut slices = vec![states(0)];
        let mut v: Vec<f64> = slices[0].iter().map(|&(_, e)| e).collect();
        let (mut explored, mut ops) = (v.len() as u64, 0u64);
        let mut backptrs: Vec<Vec<usize>> = vec![Vec::new()];
        for t in 1..inputs.len() {
            let cur = states(t);
            let prev = &slices[t - 1];
            explored += cur.len() as u64;
            ops += (prev.len() * cur.len()) as u64;
            let mut v_new = Vec::with_capacity(cur.len());
            let mut back = Vec::with_capacity(cur.len());
            for &(a, e) in &cur {
                let (mut best, mut arg) = (f64::NEG_INFINITY, 0usize);
                for (jp, &(ap, _)) in prev.iter().enumerate() {
                    let score = v[jp] + rows[ap][a];
                    if score > best {
                        best = score;
                        arg = jp;
                    }
                }
                v_new.push(best + e);
                back.push(arg);
            }
            v = v_new;
            backptrs.push(back);
            slices.push(cur);
        }
        let mut j = v
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("no NaN scores"))
            .expect("nonempty trellis")
            .0;
        let mut path = vec![0; inputs.len()];
        for t in (0..inputs.len()).rev() {
            path[t] = slices[t][j].0;
            if t > 0 {
                j = backptrs[t][j];
            }
        }
        (path, explored, ops)
    }

    /// Checks NH recognition of `session` against [`naive_flat_viterbi`]
    /// over `rows`.
    fn assert_nh_matches_reference(
        engine: &CaceEngine,
        rows: &[Vec<f64>],
        session: &Session,
        label: &str,
    ) {
        let rec = engine.recognize(session).unwrap();
        let inputs = engine.tick_inputs(session);
        let preparer = engine.runtime_preparer();
        let macro_lp: Vec<[Vec<f64>; 2]> = cace_features::extract_session(session)
            .per_tick
            .iter()
            .map(|f| preparer.nh_macro_emissions(f))
            .collect();
        let (mut states, mut ops) = (0, 0);
        for u in 0..2 {
            let (path, s, o) = naive_flat_viterbi(rows, &inputs, &macro_lp, u);
            assert_eq!(rec.macros[u], path, "{label} user {u}");
            states += s;
            ops += o;
        }
        assert_eq!(rec.states_explored, states, "{label}");
        assert_eq!(rec.transition_ops, ops, "{label}");
    }

    #[test]
    fn nh_recognition_matches_a_dense_flat_reference() {
        for seed in [21u64, 22, 23] {
            let (train, test) = train_test_split(dataset(4, 60, seed), 0.75);
            let config = CaceConfig::default().with_strategy(Strategy::NaiveHmm);
            let mut engine = CaceEngine::train(&train, &config).unwrap();
            let n = engine.n_macro();
            let rows = nh_reference_rows(&train, n);
            assert_nh_matches_reference(&engine, &rows, &test[0], &format!("seed {seed}"));

            // Trained rows are dominated by self-transitions and nearly
            // symmetric off the diagonal; random rows in [-40, 0) are not,
            // so a transposed table lookup moves the decoded path.
            let mut state = seed;
            let mut draw = || {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                -40.0 * (state >> 11) as f64 / (1u64 << 53) as f64
            };
            let rows: Vec<Vec<f64>> = (0..n).map(|_| (0..n).map(|_| draw()).collect()).collect();
            engine.nh_log_trans = nh::FlatTable::from_rows(&rows);
            let label = format!("seed {seed}, random rows");
            assert_nh_matches_reference(&engine, &rows, &test[0], &label);
        }
    }

    #[test]
    fn out_of_range_labels_are_rejected_not_a_panic() {
        for strategy in [Strategy::NaiveHmm, Strategy::CorrelationConstraint] {
            let mut sessions = dataset(3, 60, 14);
            let n_macro = sessions[0].n_activities;
            sessions[1].ticks[5].labels[0] = n_macro;
            let config = CaceConfig::default().with_strategy(strategy);
            let result = CaceEngine::train(&sessions, &config);
            assert!(
                matches!(result, Err(ModelError::InvalidConfig(_))),
                "{strategy}: {:?}",
                result.err()
            );
        }
    }

    #[test]
    fn empty_training_set_is_rejected() {
        assert!(matches!(
            CaceEngine::train(&[], &CaceConfig::default()),
            Err(ModelError::InsufficientData { .. })
        ));
    }
}
