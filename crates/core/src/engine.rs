//! The CACE engine: training and run-time recognition.

use std::sync::Arc;
use std::time::Instant;

use cace_baselines::Hmm;
use cace_behavior::Session;
use cace_features::SessionFeatures;
use cace_hdbn::{
    fit_em_shared as hdbn_fit_em_shared, trellis, CoupledHdbn, DecoderConfig, EmConfig, HdbnConfig,
    HdbnParams, SingleHdbn, TickInput, TrellisArena,
};
use cace_mining::constraint::{ConstraintMiner, LabeledSequence};
use cace_mining::rules::mine_negative_rules;
use cace_mining::{
    initial_cace_rules, mine_rules, AprioriConfig, AtomSpace, HierarchicalStats, PruningEngine,
    RuleSet,
};
use cace_model::{ModelError, StateMask};

use crate::classifiers::{extract_all, MicroClassifiers};
use crate::evidence::{EvidenceConfig, PrevState};
use crate::nh;
use crate::statespace::TickPreparer;
use crate::strategy::Strategy;
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
    pub(crate) nh_hmm: Hmm,
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

        // NH flat transition table + macro HMM.
        let label_seqs: Vec<Vec<usize>> = sessions
            .iter()
            .flat_map(|s| [s.labels_of(0), s.labels_of(1)])
            .collect();
        let nh_hmm = Hmm::fit(&label_seqs, n_macro, 0.5)?;
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
            nh_hmm,
        };

        // Optional EM refinement over the training tick inputs. The initial
        // tables are lent to EM through the same `Arc` the engine serves
        // from; EM's E-step fans sequences across cores and only the
        // M-step allocates fresh tables.
        if config.run_em && config.strategy.hierarchical() {
            let em_inputs: Vec<Vec<TickInput>> = sessions
                .iter()
                .zip(&features)
                .map(|(s, f)| engine.tick_inputs_unpruned(s, f, config.beam))
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
    /// This is the batch pipeline up to (but not including) the decoder,
    /// exposed so differential suites and benches can drive reference
    /// decoders over exactly the engine's state spaces.
    pub fn tick_inputs(&self, session: &Session) -> Vec<TickInput> {
        let features = cace_features::extract_session(session);
        match self.config.strategy {
            Strategy::NaiveHmm => {
                self.tick_inputs_unpruned(session, &features, self.config.nh_beam)
            }
            Strategy::NaiveConstraint => {
                self.tick_inputs_unpruned(session, &features, self.config.beam)
            }
            Strategy::NaiveCorrelation | Strategy::CorrelationConstraint => {
                self.tick_inputs_pruned(session, &features).0
            }
        }
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

    /// Builds unpruned tick inputs (used by EM, NCS, and — with its larger
    /// beam — NH).
    fn tick_inputs_unpruned(
        &self,
        session: &Session,
        features: &SessionFeatures,
        beam: usize,
    ) -> Vec<TickInput> {
        let preparer = self.tick_preparer(beam, false);
        let mut prev = [PrevState::default(), PrevState::default()];
        (0..session.len())
            .map(|t| {
                preparer
                    .prepare(&session.ticks[t].observed, &features.per_tick[t], &mut prev)
                    .input
            })
            .collect()
    }

    /// Builds pruned tick inputs, returning (inputs, joint sizes, firings).
    fn tick_inputs_pruned(
        &self,
        session: &Session,
        features: &SessionFeatures,
    ) -> (Vec<TickInput>, Vec<u128>, u64) {
        let preparer = self.tick_preparer(self.config.beam, true);
        let mut prev = [PrevState::default(), PrevState::default()];
        let mut inputs = Vec::with_capacity(session.len());
        let mut joint_sizes = Vec::with_capacity(session.len());
        let mut fired = 0u64;
        for t in 0..session.len() {
            let prepared =
                preparer.prepare(&session.ticks[t].observed, &features.per_tick[t], &mut prev);
            fired += prepared.rules_fired;
            joint_sizes.push(prepared.joint_size);
            inputs.push(prepared.input);
        }
        (inputs, joint_sizes, fired)
    }

    /// Runs recognition on one session.
    ///
    /// # Errors
    /// Propagates decoding failures (e.g. emptied state spaces).
    pub fn recognize(&self, session: &Session) -> Result<Recognition, ModelError> {
        let start = Instant::now();
        let features = cace_features::extract_session(session);

        let result = match self.config.strategy {
            Strategy::NaiveHmm => self.recognize_nh(session, &features),
            Strategy::NaiveCorrelation => {
                let (inputs, sizes, fired) = self.tick_inputs_pruned(session, &features);
                let model = SingleHdbn::from_shared(Arc::clone(&self.params));
                let mut states = 0u64;
                let mut ops = 0u64;
                let mut macros: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
                for u in 0..2 {
                    let path = model.viterbi(&inputs, u)?;
                    states += path.states_explored;
                    // Historical input-size convention: single-chain
                    // transition work is |S|² per tick.
                    ops += inputs
                        .windows(2)
                        .map(|w| {
                            (w[0].joint_states(self.n_macro) as f64).sqrt() as u64
                                * (w[1].joint_states(self.n_macro) as f64).sqrt() as u64
                        })
                        .sum::<u64>();
                    macros[u] = path.macros;
                }
                Ok((macros, states, ops, sizes, fired))
            }
            Strategy::NaiveConstraint => {
                let inputs = self.tick_inputs_unpruned(session, &features, self.config.beam);
                let sizes: Vec<u128> = inputs
                    .iter()
                    .map(|i| i.joint_states(self.n_macro) as u128)
                    .collect();
                let model = CoupledHdbn::from_shared(Arc::clone(&self.params));
                let path = model.viterbi(&inputs)?;
                Ok((
                    path.macros,
                    path.states_explored,
                    path.transition_ops,
                    sizes,
                    0,
                ))
            }
            Strategy::CorrelationConstraint => {
                let (inputs, sizes, fired) = self.tick_inputs_pruned(session, &features);
                let model = CoupledHdbn::from_shared(Arc::clone(&self.params));
                let path = model.viterbi(&inputs)?;
                Ok((
                    path.macros,
                    path.states_explored,
                    path.transition_ops,
                    sizes,
                    fired,
                ))
            }
        };
        let (macros, states_explored, transition_ops, joint_sizes, rules_fired) = result?;

        let mean_joint_size = if joint_sizes.is_empty() {
            0.0
        } else {
            joint_sizes.iter().map(|&s| s as f64).sum::<f64>() / joint_sizes.len() as f64
        };
        Ok(Recognition {
            macros,
            states_explored,
            transition_ops,
            wall_seconds: start.elapsed().as_secs_f64(),
            mean_joint_size,
            rules_fired,
        })
    }

    /// NH: exhaustive flat product HMM per user.
    #[allow(clippy::type_complexity)]
    fn recognize_nh(
        &self,
        session: &Session,
        features: &SessionFeatures,
    ) -> Result<([Vec<usize>; 2], u64, u64, Vec<u128>, u64), ModelError> {
        let inputs = self.tick_inputs_unpruned(session, features, self.config.nh_beam);
        let sizes: Vec<u128> = inputs
            .iter()
            .map(|i| i.joint_states(self.n_macro) as u128)
            .collect();
        let preparer = self.tick_preparer(self.config.nh_beam, false);
        // Per-tick macro emissions from the direct classifier.
        let mut all_emissions: Vec<[Vec<f64>; 2]> = (0..session.len())
            .map(|t| preparer.nh_macro_emissions(&features.per_tick[t]))
            .collect();
        let mut macros: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
        let mut states = 0u64;
        let mut ops = 0u64;
        for u in 0..2 {
            let emissions: Vec<Vec<f64>> = all_emissions
                .iter_mut()
                .map(|e| std::mem::take(&mut e[u]))
                .collect();
            let (path, s, o) = self.flat_product_viterbi(&inputs, &emissions, u)?;
            states += s;
            ops += o;
            macros[u] = path;
        }
        Ok((macros, states, ops, sizes, 0))
    }

    /// Flat Viterbi over the (macro × micro-beam) product space with no
    /// hierarchical structure — the "all possible states" NH decoder,
    /// driven through the step functions in [`crate::nh`] (shared with the
    /// streaming path).
    fn flat_product_viterbi(
        &self,
        inputs: &[TickInput],
        macro_emissions: &[Vec<f64>],
        user: usize,
    ) -> Result<(Vec<usize>, u64, u64), ModelError> {
        if inputs.is_empty() {
            return Err(ModelError::InsufficientData {
                what: "NH decoding".into(),
                available: 0,
                required: 1,
            });
        }
        let n = self.n_macro;

        let model = nh::FlatModel {
            table: &self.nh_log_trans,
        };
        let mut all_states = vec![nh::states(&inputs[0], user, n)];
        let mut all_emit = vec![nh::emissions(
            &inputs[0],
            user,
            &all_states[0],
            &macro_emissions[0],
        )];
        let mut v: Vec<f64> = Vec::new();
        trellis::init_into(
            &model,
            &nh::FlatView::new(&all_states[0], &all_emit[0], n),
            &mut v,
        );
        let mut states_explored = all_states[0].len() as u64;
        let mut transition_ops = 0u64;
        let mut backptrs: Vec<Vec<u32>> = vec![Vec::new()];
        let mut arena = TrellisArena::new();

        for t in 1..inputs.len() {
            let cur = nh::states(&inputs[t], user, n);
            let emit = nh::emissions(&inputs[t], user, &cur, &macro_emissions[t]);
            let prev = all_states.last().expect("nonempty");
            let prev_emit = all_emit.last().expect("nonempty");
            states_explored += cur.len() as u64;
            let mut back = Vec::new();
            let pv = nh::FlatView::new(prev, prev_emit, n);
            let cv = nh::FlatView::new(&cur, &emit, n);
            transition_ops += (cur.len() * prev.len()) as u64;
            let dom = self.nh_log_trans.dominance();
            trellis::step_into(&model, dom, &pv, &v, &cv, &mut arena, &mut back);
            arena.swap_frontier(&mut v);
            backptrs.push(back);
            all_states.push(cur);
            all_emit.push(emit);
        }

        let mut j = trellis::argmax(&v).0;
        let mut path = vec![0usize; inputs.len()];
        for t in (0..inputs.len()).rev() {
            path[t] = all_states[t][j].0;
            if t > 0 {
                j = backptrs[t][j] as usize;
            }
        }
        let _ = &self.nh_hmm; // macro-only fallback kept for API completeness
        Ok((path, states_explored, transition_ops))
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

    #[test]
    fn empty_training_set_is_rejected() {
        assert!(matches!(
            CaceEngine::train(&[], &CaceConfig::default()),
            Err(ModelError::InsufficientData { .. })
        ));
    }
}
