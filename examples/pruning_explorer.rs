//! Pruning explorer: watch the correlation miner shrink the joint state
//! space tick by tick, compare the four strategies of Fig 11, and see how
//! much of the remaining trellis frontier dominance pruning skips inside
//! each exact DP step (the two pruning levers compose).
//!
//! Run with: `cargo run --release --example pruning_explorer`

use cace::behavior::session::train_test_split;
use cace::behavior::{cace_grammar, generate_cace_dataset, SessionConfig};
use cace::core::{CaceConfig, CaceEngine, Lag, Strategy};
use cace::eval::mean_duration_error;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let grammar = cace_grammar();
    let sessions = generate_cace_dataset(
        &grammar,
        1,
        4,
        &SessionConfig::standard().with_ticks(200),
        31415,
    );
    let (train, test) = train_test_split(sessions, 0.75);
    let session = &test[0];

    println!(
        "{:<5} {:>10} {:>16} {:>16} {:>14} {:>10}",
        "strat", "accuracy", "states explored", "transition ops", "duration err", "wall (s)"
    );
    let mut ops = Vec::new();
    for strategy in Strategy::ALL {
        let engine = CaceEngine::train(&train, &CaceConfig::default().with_strategy(strategy))?;
        let rec = engine.recognize(session)?;
        let dur: f64 = (0..2)
            .map(|u| mean_duration_error(&session.labels_of(u), &rec.macros[u], 5))
            .sum::<f64>()
            / 2.0;
        println!(
            "{:<5} {:>9.1}% {:>16} {:>16} {:>13.1}% {:>10.4}",
            strategy.label(),
            100.0 * rec.accuracy(session),
            rec.states_explored,
            rec.transition_ops,
            100.0 * dur,
            rec.wall_seconds
        );
        ops.push((strategy, rec.transition_ops));
    }

    let ncs = ops
        .iter()
        .find(|(s, _)| *s == Strategy::NaiveConstraint)
        .unwrap()
        .1;
    let c2 = ops
        .iter()
        .find(|(s, _)| *s == Strategy::CorrelationConstraint)
        .unwrap()
        .1;
    println!(
        "\nstate-space pruning reduced the coupled model's transition work by \
         {:.1}× (paper: 16×)",
        ncs as f64 / c2.max(1) as f64
    );

    // Inside every DP step, dominance pruning then skips the frontier
    // states that provably cannot win, without changing any decision.
    let engine = CaceEngine::train(&train, &CaceConfig::default())?;
    let inputs = engine.tick_inputs(session);
    let mut stream = engine.stream(Lag::Fixed(10));
    let (mut survivors, mut frontier) = (0u64, 0u64);
    for (t, tick) in session.ticks.iter().enumerate() {
        stream.push(&tick.observed)?;
        if let Some(s) = stream.last_survivors() {
            survivors += s as u64;
            frontier += inputs[t - 1].joint_states(engine.n_macro());
        }
    }
    println!(
        "dominance pruning folded {survivors} of {frontier} C2 frontier states \
         ({:.1}%) with bit-identical decisions",
        100.0 * survivors as f64 / frontier.max(1) as f64
    );
    Ok(())
}
