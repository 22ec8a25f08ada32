//! Set consensus: the task that separated the fault-tolerance hierarchy.
//!
//! Sweeps `(n+1, k)`-set consensus through the solvability decision
//! procedure (Proposition 3.1) and exhibits the Sperner counterexample
//! behind the impossibility half.
//!
//! ```sh
//! cargo run --example set_consensus
//! ```

use iis::core::solvability::{solve_at, solve_at_bounded, BoundedOutcome};
use iis::tasks::library::k_set_consensus;
use iis::topology::sperner::{
    count_rainbow, labeling_from, set_consensus_counterexample, validate_sperner,
};
use iis::topology::{sds_iterated, Complex};

fn main() {
    println!("(n+1, k)-set consensus solvability (searched up to b = 2,");
    println!("100k-node budget per search; Sperner certifies all-b impossibility):\n");
    println!("{:>4} {:>4} {:>16}", "n+1", "k", "solvable?");
    for n in 1..=2usize {
        for k in 1..=n + 1 {
            let task = k_set_consensus(n, k);
            let mut verdict = "no map ≤ 2".to_string();
            for b in 0..=2usize {
                match solve_at_bounded(&task, b, 100_000) {
                    BoundedOutcome::Solvable(m) => {
                        verdict = format!("yes (b = {})", m.rounds());
                        break;
                    }
                    BoundedOutcome::Unsolvable => {}
                    BoundedOutcome::Exhausted
                    | BoundedOutcome::TimedOut
                    | BoundedOutcome::TooLarge { .. } => {
                        verdict = format!("no map < {b}; b = {b} deferred to Sperner");
                        break;
                    }
                }
            }
            println!("{:>4} {:>4} {:>16}", n + 1, k, verdict);
        }
    }

    println!("\nWhy k ≤ n fails — the Sperner argument on SDS^b(s²):");
    for b in 1..=2usize {
        let sub = sds_iterated(&Complex::standard_simplex(2), b);
        // any decision map must label each vertex with an id from its
        // carrier — a Sperner labeling; take the "smallest-seen id" labeling
        // a real protocol could produce:
        let labels = labeling_from(&sub, |v| {
            sub.carrier_of_vertex(v)
                .iter()
                .map(|u| sub.base().color(u))
                .min()
                .expect("non-empty carrier")
        });
        validate_sperner(&sub, &labels).expect("valid Sperner labeling");
        let rainbow = count_rainbow(&sub, &labels);
        let cex = set_consensus_counterexample(&sub, &labels, 2)
            .expect("valid labeling")
            .expect("Sperner guarantees a rainbow facet");
        println!(
            "  b = {b}: {} facets, {} rainbow (odd ⇒ nonzero); \
             execution {cex:?} makes 3 distinct decisions — k = 2 violated",
            sub.complex().num_facets(),
            rainbow,
        );
    }

    println!("\nContrast: with one round of immediate snapshot, 3 processes");
    println!("CAN solve 3-set consensus (trivially) but not 2-set consensus:");
    let t3 = k_set_consensus(2, 3);
    let t2 = k_set_consensus(2, 2);
    println!("  (3,3): {:?}", solve_at(&t3, 0).map(|m| m.rounds()));
    println!(
        "  (3,2) at b = 1: {:?}",
        solve_at(&t2, 1).map(|m| m.rounds())
    );
}
