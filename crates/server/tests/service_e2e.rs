//! End-to-end daemon tests over real TCP on an ephemeral port: responses
//! are bit-identical to the in-process compiled-quotient path at every
//! thread count, the warm cache answers repeats without recompiling or
//! re-solving (asserted on the service's own counters, not wall-clock),
//! the metrics exposition agrees with the stats snapshot, concurrent
//! clients coalesce onto one transient pass, an idle daemon stops without
//! any client, and an overlong request line is refused.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};

use arcade_core::{ComposerOptions, ExecOptions, FacilityAnalysis};
use arcade_server::{server, AnalysisService, Client, ServerHandle};
use watertreatment::facility::{facility_model, DISASTER_LINE2_MIXED, FACILITY_DISASTER_ALL_PUMPS};
use watertreatment::strategies;

fn spawn_daemon(threads: usize) -> (ServerHandle, Arc<AnalysisService>) {
    let service = Arc::new(AnalysisService::new(ExecOptions::with_threads(threads)));
    let handle =
        server::spawn("127.0.0.1:0", Arc::clone(&service)).expect("bind an ephemeral port");
    (handle, service)
}

fn curves_bit_identical(served: &[(f64, f64)], reference: &[(f64, f64)]) -> bool {
    served.len() == reference.len()
        && served.iter().zip(reference).all(|((st, sv), (rt, rv))| {
            st.to_bits() == rt.to_bits() && sv.to_bits() == rv.to_bits()
        })
}

/// The daemon's DED×DED facility answers are bit-identical to the
/// in-process `FacilityAnalysis` compiled-quotient path — at 1, 2, 4 and 8
/// worker threads (per thread count, daemon and reference share the same
/// `ExecOptions`). The served recovery curve, solved on the joint chain,
/// also agrees with the analysis's product-form curve to 1e-12 relative.
#[test]
fn daemon_matches_in_process_facility_analysis_at_every_thread_count() {
    let times = [0.0, 25.0, 50.0];
    for threads in [1usize, 2, 4, 8] {
        let exec = ExecOptions::with_threads(threads);
        let model = facility_model(&strategies::dedicated(), &strategies::dedicated()).unwrap();
        let options = ComposerOptions {
            exec,
            ..ComposerOptions::default()
        };
        let analysis = FacilityAnalysis::with_options(&model, options).unwrap();
        let joint = analysis.compiled_quotient().unwrap();
        let reference_availability = joint.availability(exec).unwrap();
        let reference_curve = joint
            .survivability_curve(FACILITY_DISASTER_ALL_PUMPS, 1.0, &times, exec)
            .unwrap();
        let product_form_curve = analysis
            .survivability_curve(FACILITY_DISASTER_ALL_PUMPS, 1.0, &times)
            .unwrap();

        let (handle, _service) = spawn_daemon(threads);
        let mut client = Client::connect(handle.addr()).unwrap();
        let reply = client.availability("facility/ded+ded").unwrap();
        assert_eq!(
            reply.availability.to_bits(),
            reference_availability.to_bits(),
            "threads={threads}: served {} vs in-process {}",
            reply.availability,
            reference_availability
        );
        assert_eq!(reply.model, "facility/ded+ded");
        let served_curve = client
            .survivability("facility/ded+ded", FACILITY_DISASTER_ALL_PUMPS, 1.0, &times)
            .unwrap();
        assert!(
            curves_bit_identical(&served_curve, &reference_curve),
            "threads={threads}: {served_curve:?} vs {reference_curve:?}"
        );
        for ((t, served), (_, product)) in served_curve.iter().zip(&product_form_curve) {
            assert!(
                (served - product).abs() <= 1e-12 * served.abs(),
                "threads={threads}, t={t}: served {served} vs product form {product}"
            );
        }
        handle.shutdown();
    }
}

/// The acceptance criterion behind "warm repeats are ≥10× faster", stated on
/// the service's own counters instead of loopback wall-clock (which flakes
/// under scheduler noise): the repeat compiles nothing, re-solves nothing and
/// rides the memoised solve, so the cold query's cost — a compile plus a
/// stationary solve with a positive iteration count — is simply absent from
/// the warm path. Wall-clock is still printed for information.
#[test]
fn warm_cache_repeat_is_at_least_ten_times_faster_than_cold() {
    let (handle, service) = spawn_daemon(2);
    let mut client = Client::connect(handle.addr()).unwrap();

    let cold_started = Instant::now();
    let cold = client.availability("facility/ded+ded").unwrap();
    let cold_elapsed = cold_started.elapsed();

    let warm_started = Instant::now();
    let warm = client.availability("facility/ded+ded").unwrap();
    let warm_elapsed = warm_started.elapsed();

    assert_eq!(cold.availability.to_bits(), warm.availability.to_bits());
    let stats = service.stats();
    assert_eq!(stats.cache_misses, 1, "only the cold query compiled");
    assert_eq!(stats.cache_hits, 1, "the repeat hit the quotient cache");
    assert_eq!(stats.stationary_solves, 1, "the repeat reused the solve");
    assert_eq!(stats.coalesced_queries, 1, "the repeat rode the memo");
    assert!(
        stats.cold_iterations > 0,
        "the cold solve did real iterative work: {stats:?}"
    );
    assert_eq!(
        stats.solve_iterations_hist.count, 1,
        "exactly one solve was timed: {stats:?}"
    );
    // Both queries landed in the availability latency histogram, and the
    // histogram agrees with the per-op counter.
    assert_eq!(stats.availability_queries, 2, "{stats:?}");
    assert_eq!(stats.latency_availability.count, 2, "{stats:?}");
    println!(
        "informational: cold {cold_elapsed:?} vs warm {warm_elapsed:?} \
         ({:.1}x)",
        cold_elapsed.as_secs_f64() / warm_elapsed.as_secs_f64().max(1e-9)
    );
    handle.shutdown();
}

/// The `metrics` op round-trips over real TCP: the exposition parses line by
/// line and its counters agree with the structured `stats` snapshot.
#[test]
fn metrics_exposition_round_trips_and_agrees_with_stats() {
    let (handle, _service) = spawn_daemon(2);
    let mut client = Client::connect(handle.addr()).unwrap();
    client.availability("line2/ded").unwrap();
    client.availability("line2/ded").unwrap();
    let stats = client.stats().unwrap();
    let text = client.metrics().unwrap();

    // Every non-comment line is `name_or_labels value` with a numeric value.
    let value_of = |name: &str| -> Option<f64> {
        text.lines()
            .find(|line| line.split(' ').next() == Some(name))
            .and_then(|line| line.split(' ').nth(1))
            .and_then(|v| v.parse().ok())
    };
    for line in text.lines() {
        assert!(
            line.starts_with('#')
                || line
                    .split_once(' ')
                    .is_some_and(|(_, v)| v.parse::<f64>().is_ok()),
            "malformed exposition line: {line}"
        );
    }
    assert_eq!(
        value_of("arcade_queries_op_total{op=\"availability\"}"),
        Some(stats.availability_queries as f64)
    );
    assert_eq!(
        value_of("arcade_stationary_solves_total"),
        Some(stats.stationary_solves as f64)
    );
    assert_eq!(
        value_of("arcade_tier_solves_total{tier=\"gs-materialised\"}"),
        Some(stats.gs_materialised_solves as f64)
    );
    assert_eq!(
        value_of("arcade_cache_hits_total"),
        Some(stats.cache_hits as f64)
    );
    assert_eq!(
        value_of("arcade_query_latency_microseconds_count{op=\"availability\"}"),
        Some(stats.latency_availability.count as f64)
    );
    handle.shutdown();
}

/// Concurrent clients issuing the identical survivability query coalesce
/// onto one batched Fox–Glynn pass, and all of them receive bit-identical
/// curves.
#[test]
fn concurrent_clients_coalesce_onto_one_transient_pass() {
    const CLIENTS: usize = 6;
    let (handle, service) = spawn_daemon(4);
    let addr = handle.addr();
    let times = [0.0, 10.0, 20.0, 40.0];
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let workers: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                barrier.wait();
                client
                    .survivability("line2/ded", DISASTER_LINE2_MIXED, 1.0, &times)
                    .unwrap()
            })
        })
        .collect();
    let curves: Vec<Vec<(f64, f64)>> = workers
        .into_iter()
        .map(|worker| worker.join().unwrap())
        .collect();

    for curve in &curves[1..] {
        assert!(
            curves_bit_identical(curve, &curves[0]),
            "coalesced waiters must receive bit-identical curves"
        );
    }
    let stats = service.stats();
    assert_eq!(
        stats.transient_passes, 1,
        "one batched Fox–Glynn pass served all {CLIENTS} clients: {stats:?}"
    );
    assert_eq!(stats.coalesced_queries, (CLIENTS - 1) as u64, "{stats:?}");
    handle.shutdown();
}

/// A client-initiated `shutdown` request is acknowledged and stops the
/// daemon (the foreground `wt-experiments serve` exit path).
#[test]
fn client_shutdown_request_stops_the_daemon() {
    let (handle, _service) = spawn_daemon(1);
    let addr = handle.addr();
    let mut client = Client::connect(addr).unwrap();
    client.ping().unwrap();
    client.shutdown().unwrap();
    // Joins without setting the flag ourselves: only the client's request
    // can have stopped the accept loop.
    handle.join_until_shutdown();
    assert!(
        Client::connect(addr).map(|mut c| c.ping()).is_err()
            || Client::connect(addr).unwrap().ping().is_err(),
        "the daemon must no longer answer"
    );
}

/// The accept loop blocks in `accept`, so stopping it must wake it: a
/// daemon that never saw a client returns from `shutdown()` and from drop,
/// also when it listens on the unspecified address (the wake-up then goes
/// to loopback). A hang fails the test instead of stalling it.
#[test]
fn idle_daemon_stops_without_any_client() {
    let (done, finished) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let service = Arc::new(AnalysisService::new(ExecOptions::serial()));
        server::spawn("127.0.0.1:0", Arc::clone(&service))
            .unwrap()
            .shutdown();
        drop(server::spawn("127.0.0.1:0", Arc::clone(&service)).unwrap());
        server::spawn("0.0.0.0:0", service).unwrap().shutdown();
        done.send(()).unwrap();
    });
    finished
        .recv_timeout(Duration::from_secs(60))
        .expect("an idle daemon must stop on shutdown() and on drop");
    worker.join().unwrap();
}

/// A request line of 1 MiB + 1 bytes without a newline is answered with an
/// error naming the limit, and that connection is closed; the daemon keeps
/// serving other connections.
#[test]
fn overlong_request_line_is_refused() {
    let (handle, _service) = spawn_daemon(1);
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    // Fail rather than hang if the daemon keeps waiting for a newline.
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(&vec![b'x'; (1 << 20) + 1]).unwrap();
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert!(
        reply.contains("\"ok\":false") && reply.contains("1048576 bytes"),
        "{reply}"
    );
    reply.clear();
    assert_eq!(
        reader.read_line(&mut reply).unwrap(),
        0,
        "the connection is closed after the refusal"
    );

    let mut client = Client::connect(handle.addr()).unwrap();
    client.ping().unwrap();
    handle.shutdown();
}
