//! # flashed — the updateable web server case study
//!
//! The evaluation substrate of "Dynamic Software Updating" (PLDI 2001):
//! *FlashEd*, an updateable web server, dynamically updated through its
//! development history while serving traffic. This crate provides:
//!
//! * five [versions] of the server, written in Popcorn, whose
//!   deltas exercise every change category (new functions, new types and
//!   globals, a representation change with state transformation, bug
//!   fixes);
//! * the [patch stream](patches) between consecutive versions, produced by
//!   the `dsu-core` patch generator;
//! * a simulated [filesystem](fs) and Zipf [workload generator](workload)
//!   (substituting for the paper's real disk and client testbed while
//!   exercising the same guest code path);
//! * a [server harness](server) that boots any version in static or
//!   updateable link mode and applies patches mid-traffic at the guest's
//!   update points;
//! * a multi-worker [fleet] of N worker threads pulling from one shared
//!   inbox — or, behind a routing [edge], from one bounded inbox each —
//!   that rolls patches out fleet-wide as a [`RolloutPlan`] directs:
//!   simultaneously (barrier-coordinated), rolling (one worker at a
//!   time), or guarded (canary + health gate + automatic rollback — see
//!   [guard]), with a [fault]-injection layer to prove the self-healing
//!   paths work;
//! * a [telemetry] layer: per-server request/pause instruments, a
//!   fleet-wide update-lifecycle journal, and merged Prometheus/JSON
//!   scrapes with a live version-skew gauge.
//!
//! ## Example
//!
//! ```
//! use flashed::{versions, Server, ServerConfig, SimFs, Workload};
//!
//! let fs = SimFs::generate_fixed(8, 512, 1);
//! let mut wl = Workload::new(fs.paths(), 1.0, 7);
//! let mut server = Server::start(&ServerConfig::new(), &versions::v1(), "v1", fs)?;
//! server.push_requests(wl.batch(20));
//! assert_eq!(server.serve()?, 20);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod edge;
pub mod fault;
pub mod fleet;
pub mod fs;
pub mod guard;
pub mod http;
pub mod patches;
pub mod rng;
pub mod rollout;
pub mod server;
pub mod telemetry;
pub mod versions;
pub mod workload;

pub use edge::{Edge, EdgeAdmission, EdgeConfig, EdgeError, HashRing, Inbox, RoutePolicy, Routed};
pub use fault::{CrashPoint, FaultPlan, InjectedCrash};
pub use fleet::{
    Fleet, FleetConfig, FleetError, RestartReport, SupervisorConfig, WorkerFailure, WorkerOverride,
};
pub use fs::{AsyncFs, BufferCache, ReadCompletion, ReadTicket, SimFs};
pub use guard::{
    windowed_quantile, BreachAction, ErrorRateWindow, HealthBreach, HealthGate, PauseSlo,
    RolloutOutcome, RolloutReportCard, StepHealth,
};
pub use http::{parse_request, parse_response, Request, Response};
pub use patches::patch_stream;
pub use rng::Rng;
pub use rollout::{CohortReport, CohortSpec, Orchestrator, OrchestratorReport, RolloutPlan};
pub use server::{
    latency_stats, BootError, Completion, EventLoopConfig, LatencyStats, ServeMode, Server,
    ServerConfig, ServerShared,
};
pub use telemetry::{FleetTelemetry, ServerTelemetry};
pub use workload::{Workload, Zipf};

#[cfg(test)]
mod tests {
    use super::*;
    use vm::{LinkMode, Value};

    fn fixture() -> (SimFs, Workload) {
        let fs = SimFs::generate_fixed(16, 256, 11);
        let wl = Workload::new(fs.paths(), 1.0, 23);
        (fs, wl)
    }

    #[test]
    fn v1_serves_correct_content_in_both_modes() {
        for mode in [LinkMode::Static, LinkMode::Updateable] {
            let (fs, mut wl) = fixture();
            let fs_copy = fs.clone();
            let cfg = ServerConfig::new().link_mode(mode);
            let mut s = Server::start(&cfg, &versions::v1(), "v1", fs).unwrap();
            let reqs = wl.batch(50);
            s.push_requests(reqs.clone());
            assert_eq!(s.serve().unwrap(), 50);
            let done = s.completions();
            assert_eq!(done.len(), 50);
            for (req, c) in reqs.iter().zip(&done) {
                let resp = parse_response(&c.response).expect("well-formed");
                assert_eq!(resp.status, 200);
                let path = req.split(' ').nth(1).unwrap();
                assert_eq!(resp.body, fs_copy.read(path).unwrap());
                assert_eq!(
                    resp.header("content-length").unwrap(),
                    resp.body.len().to_string()
                );
            }
        }
    }

    #[test]
    fn v1_handles_404_and_400() {
        let (fs, _) = fixture();
        let mut s = Server::start(&ServerConfig::new(), &versions::v1(), "v1", fs).unwrap();
        s.push_requests(vec![
            "GET /missing.html HTTP/1.0".to_string(),
            "BOGUS".to_string(),
        ]);
        s.serve().unwrap();
        let done = s.completions();
        assert_eq!(parse_response(&done[0].response).unwrap().status, 404);
        assert_eq!(parse_response(&done[1].response).unwrap().status, 400);
    }

    #[test]
    fn full_patch_stream_applies_mid_traffic() {
        let (fs, mut wl) = fixture();
        let mut s = Server::start(&ServerConfig::new(), &versions::v1(), "v1", fs).unwrap();
        let stream = patch_stream().unwrap();

        // Serve a batch on each version, queueing the next patch while
        // requests are still pending so it applies at an update point.
        for gen in stream {
            s.push_requests(wl.batch(30));
            s.queue_patch(gen.patch.clone());
            s.serve().unwrap();
        }
        // Final state: v5. All four updates applied.
        assert_eq!(s.updater.log().len(), 4);
        s.push_requests(wl.batch(30));
        s.serve().unwrap();

        let done = s.completions();
        assert_eq!(done.len(), 5 * 30);
        // Every response well-formed and 200 (workload has no misses).
        for c in &done {
            assert_eq!(parse_response(&c.response).unwrap().status, 200);
        }
        // v2+ responses carry Content-Type; v1's do not.
        assert!(parse_response(&done[0].response)
            .unwrap()
            .header("content-type")
            .is_none());
        assert_eq!(
            parse_response(&done.last().unwrap().response)
                .unwrap()
                .header("content-type"),
            Some("text/html")
        );
        // v5 logging active.
        assert!(!s.logs().is_empty());
    }

    #[test]
    fn cache_state_survives_the_type_change() {
        let (fs, mut wl) = fixture();
        let mut s = Server::start(&ServerConfig::new(), &versions::v3(), "v3", fs).unwrap();

        // Warm the cache on v3.
        s.push_requests(wl.batch(100));
        s.serve().unwrap();
        let Some(Value::Array(cache)) = s.process().global_value("cache") else {
            panic!("cache global missing")
        };
        let warm_len = cache.borrow().len();
        assert!(warm_len > 0, "cache should be warm");

        // Apply the v3 -> v4 type-changing patch (its cache entries are
        // remapped, to convert on first touch).
        let gen = dsu_core::PatchGen::new()
            .generate(&versions::v3(), &versions::v4(), "v3", "v4")
            .unwrap();
        s.queue_patch(gen.patch);
        s.apply_pending_now().unwrap();
        let report = &s.updater.log()[0];
        assert_eq!((report.types_changed, report.globals_transformed), (1, 0));

        // Cache contents carried across the representation change.
        let Some(Value::Array(cache)) = s.process().global_value("cache") else {
            panic!("cache global missing")
        };
        assert_eq!(cache.borrow().len(), warm_len);

        // New functionality observes hits against the *old* cached data.
        assert_eq!(
            s.process_mut().call("cache_hits_total", vec![]).unwrap(),
            Value::Int(0)
        );
        s.push_requests(wl.batch(50));
        s.serve().unwrap();
        let hits = s
            .process_mut()
            .call("cache_hits_total", vec![])
            .unwrap()
            .as_int();
        assert!(hits > 0, "cached paths must register hits, got {hits}");
    }

    #[test]
    fn v5_fixes_query_string_parsing() {
        let (fs, _) = fixture();
        let paths = fs.paths();
        let target = &paths[0];

        // v4 mis-parses query strings -> 404.
        let mut s4 =
            Server::start(&ServerConfig::new(), &versions::v4(), "v4", fs.clone()).unwrap();
        s4.push_requests(vec![format!("GET {target}?q=1 HTTP/1.0")]);
        s4.serve().unwrap();
        assert_eq!(
            parse_response(&s4.completions()[0].response)
                .unwrap()
                .status,
            404
        );

        // v5 strips the query -> 200.
        let mut s5 = Server::start(&ServerConfig::new(), &versions::v5(), "v5", fs).unwrap();
        s5.push_requests(vec![format!("GET {target}?q=1 HTTP/1.0")]);
        s5.serve().unwrap();
        assert_eq!(
            parse_response(&s5.completions()[0].response)
                .unwrap()
                .status,
            200
        );
    }

    #[test]
    fn served_total_counter_persists_across_updates() {
        let (fs, mut wl) = fixture();
        let mut s = Server::start(&ServerConfig::new(), &versions::v1(), "v1", fs).unwrap();
        s.push_requests(wl.batch(10));
        s.serve().unwrap();
        let gen = dsu_core::PatchGen::new()
            .generate(&versions::v1(), &versions::v2(), "v1", "v2")
            .unwrap();
        s.queue_patch(gen.patch);
        s.push_requests(wl.batch(10));
        s.serve().unwrap();
        assert_eq!(
            s.process().global_value("served_total"),
            Some(Value::Int(20))
        );
    }
}
