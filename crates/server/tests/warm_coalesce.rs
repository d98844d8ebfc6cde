//! Warm starts move the trajectory, never the fixed point, and the donor
//! does not depend on the service's hash state; coalesced identical queries
//! share one solve and receive bit-identical replies.

use std::sync::{Arc, Barrier};

use arcade_core::{ComposerOptions, ExecOptions};
use arcade_server::{AnalysisService, Request, Response};
use ctmc::SteadyStateSolver;
use proptest::prelude::*;
use watertreatment::ModelSpec;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A Gauss–Seidel solve warm-started from a rate-perturbed sibling's
    /// stationary vector lands on the same distribution as the cold solve
    /// to 1e-12 — the warm start is purely an iteration-count optimisation.
    /// Both solves run at a tight 1e-14 tolerance so each is within ~1e-14
    /// of the fixed point and the 1e-12 bound has margin.
    #[test]
    fn warm_started_solves_match_cold_starts_to_1e_12(
        scale in 0.85f64..1.15,
        strategy_index in 0usize..3,
    ) {
        let strategy = ["ded", "frf-1", "fff-2"][strategy_index];
        let exec = ExecOptions::serial();
        let nominal = ModelSpec::parse(&format!("line2/{strategy}"))
            .unwrap()
            .build_quotient(ComposerOptions::default())
            .unwrap();
        let (donor_pi, _) = nominal.stationary_counted(None, exec).unwrap();

        let perturbed = ModelSpec::parse(&format!("line2/{strategy}@{scale}"))
            .unwrap()
            .build_quotient(ComposerOptions::default())
            .unwrap();
        let tight_solve = |guess: Option<&[f64]>| {
            let mut solver = SteadyStateSolver::new(perturbed.chain())
                .exec(exec)
                .tolerance(1e-14);
            if let Some(guess) = guess {
                solver = solver.initial_guess(guess.to_vec());
            }
            solver.solve().unwrap()
        };
        let cold_pi = tight_solve(None);
        let warm_pi = tight_solve(Some(&donor_pi));

        for (index, (warm, cold)) in warm_pi.iter().zip(&cold_pi).enumerate() {
            prop_assert!(
                (warm - cold).abs() <= 1e-12,
                "state {index}: warm {warm} vs cold {cold} (scale {scale})"
            );
        }
        let warm_availability = perturbed.availability_of(&warm_pi);
        let cold_availability = perturbed.availability_of(&cold_pi);
        prop_assert!(
            (warm_availability - cold_availability).abs() <= 1e-12,
            "availability drifted: warm {warm_availability} vs cold {cold_availability}"
        );
    }
}

/// N concurrent identical queries: one compilation, one stationary solve,
/// and every waiter receives the bit-identical reply (the coalescer hands
/// all followers the leader's result).
#[test]
fn n_concurrent_identical_queries_share_one_solve_bit_identically() {
    const CLIENTS: usize = 8;
    let service = Arc::new(AnalysisService::new(ExecOptions::with_threads(2)));
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let workers: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let service = Arc::clone(&service);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                service.handle(&Request::Availability {
                    model: "line1/frf-2".into(),
                })
            })
        })
        .collect();
    let replies: Vec<Response> = workers
        .into_iter()
        .map(|worker| worker.join().unwrap())
        .collect();

    assert!(matches!(replies[0], Response::Ok(_)), "{:?}", replies[0]);
    for reply in &replies[1..] {
        assert_eq!(reply, &replies[0], "every waiter gets the identical reply");
    }
    let stats = service.stats();
    assert_eq!(
        stats.stationary_solves, 1,
        "N queries, one solve: {stats:?}"
    );
    assert_eq!(stats.cache_misses, 1, "one compilation: {stats:?}");
    assert_eq!(stats.cache_hits, (CLIENTS - 1) as u64, "{stats:?}");
    assert_eq!(
        stats.coalesced_queries,
        (CLIENTS - 1) as u64,
        "every non-leader coalesced onto the one solve: {stats:?}"
    );
}

/// The warm-start donor is chosen by a total order, not by `HashMap`
/// iteration order: fresh services fed the same queries for five
/// same-family, rate-scaled siblings give the same replies, down to the
/// availability bits, the iteration counts and the warm-start flags. From
/// the third query on there are several solved siblings to pick from.
#[test]
fn warm_start_donor_is_the_same_in_every_service() {
    const SERVICES: usize = 8;
    let specs = [
        "line2/frf-1",
        "line2/frf-1@1.05",
        "line2/frf-1@0.95",
        "line2/frf-1@1.1",
        "line2/frf-1@0.9",
    ];
    let replies = |service: &AnalysisService| -> Vec<(u64, usize, bool)> {
        specs
            .iter()
            .map(|spec| {
                let payload = match service.handle(&Request::Availability {
                    model: spec.to_string(),
                }) {
                    Response::Ok(payload) => payload,
                    Response::Err(err) => panic!("{spec}: {err}"),
                };
                (
                    payload
                        .get("availability")
                        .and_then(|v| v.as_f64())
                        .unwrap()
                        .to_bits(),
                    payload
                        .get("iterations")
                        .and_then(|v| v.as_usize())
                        .unwrap(),
                    payload
                        .get("warm_started")
                        .and_then(|v| v.as_bool())
                        .unwrap(),
                )
            })
            .collect()
    };
    let reference = replies(&AnalysisService::new(ExecOptions::serial()));
    assert!(!reference[0].2, "the first sibling solves cold");
    assert!(
        reference[1..].iter().all(|reply| reply.2),
        "every later sibling warm-starts: {reference:?}"
    );
    for index in 1..SERVICES {
        assert_eq!(
            replies(&AnalysisService::new(ExecOptions::serial())),
            reference,
            "service {index} picked a different donor"
        );
    }
}
