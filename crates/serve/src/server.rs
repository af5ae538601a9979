//! The daemon: artifact loading, the accept loop, and clean shutdown.
//!
//! One process loads the tuning tables and pre-trained models once, then
//! any number of clients connect over a Unix domain socket and speak
//! [`crate::protocol`]. Every connection gets a thread running a
//! [`crate::conn::Conn`]; all threads share one [`Tuner`] (`select`, the
//! indexed table lookup) and one [`Batcher`] (`predict`, batched forest
//! inference). Nothing wakes up to look at a flag: connection
//! threads block in `read` and `write` with no timeout (a `watch` stream's
//! read times out at its next tick), and shutdown
//! (SIGTERM/SIGINT via [`crate::signal`], a `shutdown` frame, or an accept
//! error) closes what they wait on. Every live socket is shut down, so a
//! blocked read — a `watch` stream's wait for its next tick included —
//! sees EOF and a blocked write `EPIPE`, the threads are joined and the
//! socket file is removed — a supervisor sees exit code 0.
//!
//! Artifact directory layout (`--model DIR`):
//!
//! ```text
//! DIR/*.json          verified tuning tables (pml-table/v1), one per collective
//! DIR/models/*.json   verified pre-trained model artifacts (pml-model/v1)
//! ```
//!
//! Damaged files are skipped with a warning, not fatal — a deployment with
//! one bad table still serves the rest (mirroring [`Tuner::from_dir`]).

use crate::batch::{BatchConfig, Batcher};
use crate::conn::Conn;
use crate::quality::QualityMonitor;
use crate::reqtrace::{RequestCounts, SlowRing};
use crate::slo::SloTargets;
use pml_collectives::Collective;
use pml_core::{PretrainedModel, Tuner};
use pml_obs::{Clock, MonotonicClock};
use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::net::Shutdown;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

/// How long the accept loop sleeps before it looks at `term` and the
/// `shutdown` frame's flag again. `term` is a plain flag that a signal
/// handler or an embedding thread sets; `signal(2)` restarts a blocked
/// `accept`, and without `libc` nothing else can wake one for that flag.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Request-observability configuration: stage tracing, the slow-request
/// threshold, SLO targets for `watch`, and quality-monitor sampling. All
/// of it is strictly write-only telemetry — no setting here changes any
/// answer the daemon gives.
#[derive(Debug, Clone)]
pub struct ObsConfig {
    /// Stage-attribute every request (windowed histograms, slow ring).
    /// Off = a connection reads no clock.
    pub trace_requests: bool,
    /// Requests at least this slow land in the slow-request ring.
    pub slow_threshold_ns: u64,
    /// Latency targets `watch` reports burn-rate against.
    pub slo: Option<SloTargets>,
    /// Re-score 1 in this many served decisions through the analytic
    /// referee (0 disables the quality monitor).
    pub quality_sample: u64,
    /// Score against this zoo cluster instead of each sample's own
    /// cluster label (for deployments whose tables name no zoo cluster).
    pub quality_cluster: Option<String>,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            trace_requests: true,
            slow_threshold_ns: 1_000_000,
            slo: None,
            quality_sample: 32,
            quality_cluster: None,
        }
    }
}

/// A daemon-level failure (socket I/O or artifact loading).
#[derive(Debug)]
pub enum ServeError {
    Io {
        path: PathBuf,
        source: std::io::Error,
    },
    Load(pml_core::PmlError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io { path, source } => write!(f, "{}: {source}", path.display()),
            ServeError::Load(e) => write!(f, "loading artifacts: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// What `load_artifacts` found in the model directory.
#[derive(Debug)]
pub struct LoadedArtifacts {
    pub tuner: Tuner,
    pub models: BTreeMap<Collective, Arc<PretrainedModel>>,
    /// Skipped files and why (surfaced on stderr by the CLI).
    pub warnings: Vec<String>,
}

/// Load and statically verify every artifact under `dir`: tuning tables
/// from `dir/*.json`, pre-trained models from `dir/models/*.json`. An
/// entry that cannot be read, parsed or verified becomes a warning; only
/// an unreadable directory is an error.
pub fn load_artifacts(dir: &Path) -> Result<LoadedArtifacts, ServeError> {
    let (tuner, mut warnings) = Tuner::from_dir(dir).map_err(ServeError::Load)?;
    let mut models = BTreeMap::new();
    let models_dir = dir.join("models");
    if models_dir.is_dir() {
        let (loaded, skipped) =
            pml_core::load_verified_dir(&models_dir, "model", pml_core::verify_model_json)
                .map_err(ServeError::Load)?;
        models.extend(loaded.into_iter().map(|m| (m.collective, Arc::new(m))));
        warnings.extend(skipped);
    }
    Ok(LoadedArtifacts {
        tuner,
        models,
        warnings,
    })
}

/// State every connection thread shares.
pub(crate) struct Shared {
    pub(crate) tuner: Tuner,
    pub(crate) batcher: Batcher,
    /// Which collectives have a loaded model (for `stats`).
    pub(crate) model_coverage: Vec<Collective>,
    /// Set by a `shutdown` frame; the accept loop polls it beside `term`.
    pub(crate) stopping: AtomicBool,
    pub(crate) counts: RequestCounts,
    pub(crate) clock: Arc<dyn Clock>,
    /// Immutable after bind: whether requests carry a `RequestTrace`.
    pub(crate) trace_requests: bool,
    pub(crate) slow_threshold_ns: u64,
    pub(crate) slow_ring: SlowRing,
    pub(crate) slo: Option<SloTargets>,
    pub(crate) quality: Option<QualityMonitor>,
}

impl Shared {
    fn new(artifacts: LoadedArtifacts, batch: BatchConfig, obs: ObsConfig) -> Shared {
        let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());
        let batch_trace = obs.trace_requests.then(|| Arc::clone(&clock));
        Shared {
            tuner: artifacts.tuner,
            model_coverage: artifacts.models.keys().copied().collect(),
            batcher: Batcher::new(artifacts.models, batch, batch_trace),
            stopping: AtomicBool::new(false),
            counts: RequestCounts::default(),
            clock,
            trace_requests: obs.trace_requests,
            slow_threshold_ns: obs.slow_threshold_ns,
            slow_ring: SlowRing::default(),
            slo: obs.slo,
            quality: (obs.quality_sample > 0)
                .then(|| QualityMonitor::new(obs.quality_sample, obs.quality_cluster)),
        }
    }
}

/// A bound, not-yet-running daemon. [`Server::run`] blocks until shutdown.
pub struct Server {
    shared: Shared,
    listener: UnixListener,
    socket: PathBuf,
}

impl fmt::Debug for Server {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Server")
            .field("socket", &self.socket)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Bind `socket` and serve `artifacts` (see [`load_artifacts`]; their
    /// warnings are the caller's to surface). A stale socket file from a
    /// previous unclean exit is replaced.
    pub fn with_artifacts(
        socket: &Path,
        artifacts: LoadedArtifacts,
        batch: BatchConfig,
        obs: ObsConfig,
    ) -> Result<Server, ServeError> {
        let io_err = |e: std::io::Error| ServeError::Io {
            path: socket.to_path_buf(),
            source: e,
        };
        if socket.exists() {
            // A live daemon would hold the listener; a leftover file from a
            // crash just blocks bind(2).
            std::fs::remove_file(socket).map_err(io_err)?;
        }
        let listener = UnixListener::bind(socket).map_err(io_err)?;
        listener.set_nonblocking(true).map_err(io_err)?;
        Ok(Server {
            shared: Shared::new(artifacts, batch, obs),
            listener,
            socket: socket.to_path_buf(),
        })
    }

    /// Accept until `term` (e.g. the SIGTERM flag from
    /// [`crate::signal::install_termination_flag`]) is set, a `shutdown`
    /// frame arrives or `accept` fails. Every way out takes the same
    /// teardown: shut down every live connection's socket, join the
    /// connection threads, remove the socket file.
    ///
    /// A connection thread that panicked makes this panic once the others
    /// are joined.
    pub fn run(self, term: &AtomicBool) -> Result<(), ServeError> {
        let shared = &self.shared;
        let accepted = std::thread::scope(|scope| {
            // Each connection's `Conn` owns the only strong reference to its
            // stream, so the socket closes the moment the connection ends;
            // this list only reaches the live ones at shutdown.
            let mut live: Vec<Weak<UnixStream>> = Vec::new();
            let accepted = loop {
                match self.listener.accept() {
                    Ok((stream, _addr)) => {
                        live.retain(|s| s.strong_count() > 0);
                        let stream = Arc::new(stream);
                        live.push(Arc::downgrade(&stream));
                        scope.spawn(move || Conn::new(shared, stream).run());
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(POLL_INTERVAL);
                        if shared.stopping.load(Ordering::SeqCst) || term.load(Ordering::SeqCst) {
                            break Ok(());
                        }
                    }
                    Err(e) => break Err(e),
                }
            };
            // A blocked read returns EOF and a blocked write `EPIPE`.
            for stream in live.iter().filter_map(Weak::upgrade) {
                stream.shutdown(Shutdown::Both).ok();
            }
            accepted
        });
        // Best effort: the file may already be gone if the directory was.
        std::fs::remove_file(&self.socket).ok();
        accepted.map_err(|source| ServeError::Io {
            path: self.socket,
            source,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::conn::{Conn, OUT_FLUSH_BYTES};
    use crate::protocol::{self, ProtoError};
    use crate::watch;
    use pml_collectives::{Algorithm, AlltoallAlgo};
    use pml_core::JobConfig;
    use pml_core::TuningTable;
    use serde::Value;
    use std::io::Write;
    use std::sync::mpsc;

    fn test_table() -> TuningTable {
        let mut t = TuningTable::new("X", Collective::Alltoall);
        t.insert(2, 8, 64, Algorithm::Alltoall(AlltoallAlgo::Bruck))
            .unwrap();
        t.insert(2, 8, 65536, Algorithm::Alltoall(AlltoallAlgo::Pairwise))
            .unwrap();
        t
    }

    fn test_tuner() -> Tuner {
        Tuner::new([test_table()])
    }

    /// One unreadable artifact is a warning, not a failed boot: the good
    /// table and the good model beside it are loaded.
    #[test]
    fn load_artifacts_skips_an_unreadable_model() {
        let dir = std::env::temp_dir().join(format!("pmlserve-load-{}", std::process::id()));
        std::fs::create_dir_all(dir.join("models")).unwrap();
        std::fs::write(dir.join("aa.json"), test_table().to_json().unwrap()).unwrap();
        let model = mini_model(Collective::Allgather);
        std::fs::write(dir.join("models/ag.json"), model.to_json().unwrap()).unwrap();
        std::fs::write(dir.join("models/bad.json"), b"\xff\xfe").unwrap();
        let loaded = load_artifacts(&dir).unwrap();
        assert_eq!(loaded.tuner.covered(), vec![Collective::Alltoall]);
        assert_eq!(
            loaded.models.keys().collect::<Vec<_>>(),
            [&Collective::Allgather]
        );
        assert_eq!(loaded.warnings.len(), 1, "{:?}", loaded.warnings);
        let w = &loaded.warnings[0];
        assert!(w.starts_with("skipping model ") && w.contains("bad.json: read failed: "));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A document nested 100 000 deep, as a table (which used to overflow
    /// the stack) and as a model, is skipped like any corrupt artifact, and
    /// the daemon boots and serves without it.
    #[test]
    fn a_deeply_nested_artifact_is_skipped_and_the_daemon_boots() {
        let dir = std::env::temp_dir().join(format!("pmlserve-deep-{}", std::process::id()));
        std::fs::create_dir_all(dir.join("models")).unwrap();
        std::fs::write(dir.join("aa.json"), test_table().to_json().unwrap()).unwrap();
        let deep = format!(
            r#"{{"forest":{}{}}}"#,
            "[".repeat(100_000),
            "]".repeat(100_000)
        );
        std::fs::write(dir.join("deep.json"), &deep).unwrap();
        std::fs::write(dir.join("models/deep.json"), &deep).unwrap();
        let artifacts = load_artifacts(&dir).unwrap();
        let [table, model] = &artifacts.warnings[..] else {
            panic!("two warnings expected: {:?}", artifacts.warnings);
        };
        assert!(table.starts_with("skipping table ") && table.contains("nested too deep"));
        assert!(model.starts_with("skipping model ") && model.contains("deep.json: "));
        let socket = dir.join("pml.sock");
        let server = Server::with_artifacts(
            &socket,
            artifacts,
            BatchConfig::default(),
            ObsConfig::default(),
        )
        .unwrap();
        let daemon = Daemon::run(dir, server);
        assert_still_open(&mut daemon.connect());
        daemon.stop();
    }

    fn test_shared() -> Shared {
        test_shared_with(ObsConfig::default())
    }

    fn test_shared_with(obs: ObsConfig) -> Shared {
        Shared::new(test_artifacts(), BatchConfig::default(), obs)
    }

    /// The test table and no models.
    fn test_artifacts() -> LoadedArtifacts {
        LoadedArtifacts {
            tuner: test_tuner(),
            models: BTreeMap::new(),
            warnings: Vec::new(),
        }
    }

    /// Unit-test shim: answer one frame on one end of a socket pair and
    /// return what reached the other end, plus whether the connection
    /// would now close.
    fn handle(shared: &Shared, line: &str) -> (String, bool) {
        let (ours, theirs) = UnixStream::pair().unwrap();
        let mut conn = Conn::new(shared, Arc::new(ours));
        conn.buf[..line.len()].copy_from_slice(line.as_bytes());
        conn.tail = line.len();
        let stop = !(conn.answer(0..line.len()) && conn.settle() && conn.flush());
        drop(conn);
        let mut reply = String::new();
        Client::from(theirs).recv(&mut reply).unwrap();
        (reply.trim_end().to_string(), stop)
    }

    #[test]
    fn select_frames_answer_from_the_table() {
        let shared = test_shared();
        let (reply, stop) = handle(
            &shared,
            r#"{"v":"pml-serve/v1","id":1,"op":"select","collective":"alltoall","nodes":2,"ppn":8,"msg_size":64}"#,
        );
        assert!(!stop);
        let v: Value = serde_json::from_str(&reply).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("algorithm").and_then(Value::as_str), Some("bruck"));
        assert_eq!(v.get("depth").and_then(Value::as_u64), Some(0));
    }

    #[test]
    fn bad_frames_get_typed_error_replies_and_count_as_errors() {
        let shared = test_shared();
        for line in ["{oops", r#"{"v":"pml-serve/v1","op":"dance"}"#] {
            let (reply, stop) = handle(&shared, line);
            assert!(!stop, "an error never closes the connection");
            let v: Value = serde_json::from_str(&reply).unwrap();
            assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
            assert!(v.get("error").is_some());
        }
        assert_eq!(shared.counts.get(), (2, 2));
    }

    #[test]
    fn predict_without_models_is_unsupported_not_a_crash() {
        let shared = test_shared();
        let (reply, _) = handle(
            &shared,
            r#"{"v":"pml-serve/v1","id":9,"op":"predict","cluster":"Frontera","collective":"alltoall","nodes":2,"ppn":8,"msg_size":64}"#,
        );
        let v: Value = serde_json::from_str(&reply).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
        let err = v.get("error").unwrap();
        assert_eq!(err.get("kind").and_then(Value::as_str), Some("unsupported"));
    }

    #[test]
    fn shutdown_frame_stops_the_daemon() {
        let shared = test_shared();
        let (reply, stop) = handle(&shared, r#"{"v":"pml-serve/v1","op":"shutdown"}"#);
        assert!(stop);
        assert!(shared.stopping.load(Ordering::SeqCst));
        let v: Value = serde_json::from_str(&reply).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
    }

    /// All of a `stats` reply past the envelope, in the order sent.
    #[test]
    fn stats_reply_has_exactly_these_fields() {
        let fields = watch::stats(&test_shared());
        let keys: Vec<&str> = fields.iter().map(|(k, _)| &**k).collect();
        let want = "requests errors tables models trace_requests slow_captured";
        assert_eq!(keys.join(" "), want);
    }

    #[test]
    fn slow_threshold_zero_captures_every_request_with_stages() {
        let shared = test_shared_with(ObsConfig {
            slow_threshold_ns: 0,
            ..ObsConfig::default()
        });
        let (_, _) = handle(
            &shared,
            r#"{"v":"pml-serve/v1","id":1,"op":"select","collective":"alltoall","nodes":2,"ppn":8,"msg_size":64}"#,
        );
        assert!(shared.slow_ring.captured() >= 1);
        let recent = shared.slow_ring.recent(1);
        assert_eq!(recent[0].op, "select");
        let names: Vec<&str> = recent[0].stages.iter().map(|(n, _)| *n).collect();
        for want in ["parse", "select", "serialize", "total"] {
            assert!(names.contains(&want), "missing stage {want}: {names:?}");
        }
    }

    #[test]
    fn watch_op_returns_a_watch_outcome_and_fields_render() {
        let shared = test_shared_with(ObsConfig {
            slo: Some(SloTargets {
                p50_ns: 0,
                p99_ns: 0,
                error_budget: 0.01,
                source: "test".to_string(),
            }),
            quality_sample: 1,
            quality_cluster: Some("RI".to_string()),
            ..ObsConfig::default()
        });
        // Serve a request first so the windowed metrics have content and
        // the zero SLO targets are provably exceeded.
        let (_, _) = handle(
            &shared,
            r#"{"v":"pml-serve/v1","id":1,"op":"select","collective":"alltoall","nodes":2,"ppn":8,"msg_size":64}"#,
        );
        // A one-tick watch is the handshake plus one streamed frame.
        let (tick, stop) = handle(
            &shared,
            r#"{"v":"pml-serve/v1","id":2,"op":"watch","interval_ms":0,"count":1}"#,
        );
        assert!(!stop, "a finished watch leaves the connection open");
        let v: Value = serde_json::from_str(&tick).unwrap();
        assert_eq!(v.get("id").and_then(Value::as_u64), Some(2));
        assert_eq!(v.get("seq").and_then(Value::as_u64), Some(1));
        let keys: Vec<&str> = v.as_object().unwrap().iter().map(|(k, _)| &**k).collect();
        let want = "v id ok seq trace_requests window_ns window_requests window_errors \
                    window slo quality slow";
        assert_eq!(keys.join(" "), want);
        let slo = v.get("slo").unwrap();
        assert!(slo.get("over_p99").and_then(Value::as_u64).unwrap() >= 1);
        assert!(matches!(
            slo.get("burn_rate"),
            Some(Value::Float(f)) if *f > 0.0
        ));
        let window = v.get("window").unwrap();
        let total = window.get("total").expect("total stage present");
        assert!(total.get("count").and_then(Value::as_u64).unwrap() >= 1);
        // What `pml-mpi watch` prints of it: every line the serve smoke
        // lane looks for.
        let text = watch::render(&v);
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("tick 1: "), "{text}");
        let stage = |name: &str| {
            lines
                .iter()
                .any(|l| l.split_whitespace().next() == Some(name))
        };
        assert!(
            ["stage", "select", "total"].map(stage) == [true; 3],
            "{text}"
        );
        assert!(lines.iter().any(|l| l.contains("p99")), "{text}");
        assert!(text.contains("  slo: p99 target 0ns ("), "{text}");
        assert!(text.contains("  quality: 1-in-1 sampling, "), "{text}");
        assert!(text.contains("  slow: "), "{text}");
    }

    /// A daemon on a socket in its own temp directory, stopped (and its
    /// clean exit and removed socket file checked) by [`Daemon::stop`].
    struct Daemon {
        dir: PathBuf,
        socket: PathBuf,
        term: Arc<AtomicBool>,
        /// What `Server::run` returned, once it has.
        done: mpsc::Receiver<Result<(), ServeError>>,
    }

    impl Daemon {
        /// A daemon with no models; `batcher`, when given, replaces the one
        /// `with_artifacts` built (a gated one has no other way in).
        fn boot(name: &str, batcher: Option<Batcher>) -> Daemon {
            let dir = std::env::temp_dir().join(format!("pml-serve-{name}-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let mut server = Server::with_artifacts(
                &dir.join("pml.sock"),
                test_artifacts(),
                BatchConfig::default(),
                ObsConfig::default(),
            )
            .unwrap();
            if let Some(batcher) = batcher {
                server.shared.batcher = batcher;
            }
            Daemon::run(dir, server)
        }

        /// Run `server`, whose socket is in `dir`, on a thread of its own.
        fn run(dir: PathBuf, server: Server) -> Daemon {
            let socket = server.socket.clone();
            let term = Arc::new(AtomicBool::new(false));
            let flag = Arc::clone(&term);
            let (send, done) = mpsc::channel();
            std::thread::spawn(move || send.send(server.run(&flag)).ok());
            Daemon {
                dir,
                socket,
                term,
                done,
            }
        }

        fn connect(&self) -> Client {
            let client = Client::connect(&self.socket).unwrap();
            let timeout = Some(Duration::from_secs(10));
            client.stream().set_read_timeout(timeout).unwrap();
            client
        }

        fn stop(self) {
            self.stop_within(Duration::from_secs(10));
        }

        /// Set `term`; `run` must return `Ok` within `limit`, without a
        /// panic.
        fn stop_within(self, limit: Duration) {
            self.term.store(true, Ordering::SeqCst);
            let ran = self.done.recv_timeout(limit);
            ran.unwrap_or_else(|e| panic!("no clean return within {limit:?}: {e}"))
                .unwrap();
            assert!(
                !self.socket.exists(),
                "socket file removed on clean shutdown"
            );
            std::fs::remove_dir_all(&self.dir).ok();
        }
    }

    fn read_reply(client: &mut Client) -> Value {
        let mut reply = String::new();
        client.recv(&mut reply).unwrap();
        serde_json::from_str(reply.trim()).unwrap_or_else(|e| panic!("reply {reply:?}: {e}"))
    }

    const PING: &str = r#"{"v":"pml-serve/v1","id":77,"op":"ping"}"#;

    /// The connection must still answer: a ping comes back as a pong.
    fn assert_still_open(client: &mut Client) {
        client.send(PING).unwrap();
        let pong = read_reply(client);
        assert_eq!(pong.get("pong").and_then(Value::as_bool), Some(true));
        assert_eq!(pong.get("id").and_then(Value::as_u64), Some(77));
    }

    fn error_kind(reply: &Value) -> Option<&str> {
        reply.get("error")?.get("kind")?.as_str()
    }

    #[test]
    fn end_to_end_over_a_real_socket() {
        let daemon = Daemon::boot("test", None);
        let mut client = daemon.connect();
        let mut ask = |line: &str| -> Value {
            client.send(line).unwrap();
            read_reply(&mut client)
        };

        let pong = ask(r#"{"v":"pml-serve/v1","id":1,"op":"ping"}"#);
        assert_eq!(pong.get("pong").and_then(Value::as_bool), Some(true));

        let sel = ask(
            r#"{"v":"pml-serve/v1","id":2,"op":"select","collective":"alltoall","nodes":2,"ppn":8,"msg_size":65536}"#,
        );
        assert_eq!(
            sel.get("algorithm").and_then(Value::as_str),
            Some("pairwise")
        );

        // Malformed frame: typed error, connection survives.
        let bad = ask("{nope");
        assert_eq!(bad.get("ok").and_then(Value::as_bool), Some(false));
        let still = ask(r#"{"v":"pml-serve/v1","id":3,"op":"ping"}"#);
        assert_eq!(still.get("id").and_then(Value::as_u64), Some(3));

        let stats = ask(r#"{"v":"pml-serve/v1","op":"stats"}"#);
        assert!(stats.get("requests").and_then(Value::as_u64).unwrap() >= 4);

        // One-shot watch: a single snapshot frame on the same connection,
        // which stays usable afterwards.
        let snap = ask(r#"{"v":"pml-serve/v1","id":8,"op":"watch","interval_ms":0,"count":1}"#);
        assert_eq!(snap.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(snap.get("seq").and_then(Value::as_u64), Some(1));
        assert!(snap.get("window").is_some());
        let after = ask(r#"{"v":"pml-serve/v1","id":9,"op":"ping"}"#);
        assert_eq!(after.get("id").and_then(Value::as_u64), Some(9));

        let bye = ask(r#"{"v":"pml-serve/v1","op":"shutdown"}"#);
        assert_eq!(bye.get("stopping").and_then(Value::as_bool), Some(true));

        // The shutdown frame stopped the daemon; `stop` only collects it.
        daemon.stop();
    }

    #[test]
    fn external_termination_flag_stops_run() {
        Daemon::boot("term", None).stop();
    }

    /// A client pipelines selects and never reads, so its connection thread
    /// blocks writing replies. Shutdown must not wait for it to read.
    #[test]
    fn shutdown_does_not_wait_for_a_client_that_never_reads() {
        let daemon = Daemon::boot("never-reads", None);
        let client = daemon.connect();
        let select = r#"{"v":"pml-serve/v1","op":"select","collective":"alltoall","nodes":2,"ppn":8,"msg_size":64}"#;
        // The daemon reads whenever it is not writing, so once this write
        // stalls its connection thread is blocked in `write_all`.
        let stall = Some(Duration::from_millis(200));
        client.stream().set_write_timeout(stall).unwrap();
        let flood = (select.to_string() + "\n").repeat(20_000);
        let stalled = client.stream().write_all(flood.as_bytes());
        assert!(
            matches!(
                stalled.map_err(|e| e.kind()),
                Err(io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
            ),
            "the daemon read 20 000 frames without blocking"
        );
        daemon.stop();
    }

    /// Endless `watch` streams whose next tick is ten minutes away, or
    /// `u64::MAX` milliseconds, end within a second of shutdown.
    #[test]
    fn a_watch_waiting_for_its_next_tick_ends_at_shutdown() {
        let daemon = Daemon::boot("watch-wait", None);
        let watchers = [600_000, u64::MAX].map(|interval_ms| {
            let mut client = daemon.connect();
            let frame = format!(
                "{{\"v\":\"pml-serve/v1\",\"id\":1,\"op\":\"watch\",\"interval_ms\":{interval_ms},\"count\":0}}"
            );
            client.send(&frame).unwrap();
            // The first tick is out, so the stream is waiting for the next.
            let tick = read_reply(&mut client);
            assert_eq!(tick.get("seq").and_then(Value::as_u64), Some(1));
            client
        });
        daemon.stop_within(Duration::from_secs(1));
        for mut client in watchers {
            assert!(!client.recv(&mut String::new()).unwrap(), "stream ended");
        }
    }

    fn watch_frame(interval_ms: u64, count: u64) -> String {
        format!(
            "{{\"v\":\"pml-serve/v1\",\"id\":5,\"op\":\"watch\",\"interval_ms\":{interval_ms},\"count\":{count}}}"
        )
    }

    /// A ping pipelined behind a finite watch, in the same write or while
    /// the watch waits for its next tick, is answered after the last tick.
    #[test]
    fn a_finite_watch_and_a_pipelined_ping_are_answered_in_order() {
        let daemon = Daemon::boot("watch-pipelined", None);
        let mut client = daemon.connect();
        for (interval_ms, count) in [(0, 3), (50, 2)] {
            client
                .send(&format!("{}\n{PING}", watch_frame(interval_ms, count)))
                .unwrap();
            for seq in 1..=count {
                let tick = read_reply(&mut client);
                assert_eq!(tick.get("seq").and_then(Value::as_u64), Some(seq));
            }
            let pong = read_reply(&mut client);
            assert_eq!(pong.get("id").and_then(Value::as_u64), Some(77));
        }
        client.send(&watch_frame(200, 2)).unwrap();
        let first = read_reply(&mut client);
        assert_eq!(first.get("seq").and_then(Value::as_u64), Some(1));
        client.send(PING).unwrap();
        let second = read_reply(&mut client);
        assert_eq!(second.get("seq").and_then(Value::as_u64), Some(2));
        let pong = read_reply(&mut client);
        assert_eq!(pong.get("id").and_then(Value::as_u64), Some(77));
        daemon.stop();
    }

    /// A client that hangs up while its watch waits for the next tick, ten
    /// minutes or `u64::MAX` milliseconds away, ends the stream and its
    /// connection at once: the daemon closes its end.
    #[test]
    fn a_watch_ends_when_its_client_hangs_up() {
        let daemon = Daemon::boot("watch-hangup", None);
        for (interval_ms, count) in [(600_000, 0), (u64::MAX, 2)] {
            let mut client = daemon.connect();
            client.send(&watch_frame(interval_ms, count)).unwrap();
            let tick = read_reply(&mut client);
            assert_eq!(tick.get("seq").and_then(Value::as_u64), Some(1));
            client.stream().shutdown(Shutdown::Write).unwrap();
            assert!(!client.recv(&mut String::new()).unwrap(), "stream ended");
        }
        daemon.stop();
    }

    #[test]
    fn a_shutdown_frame_closes_an_idle_connection() {
        let daemon = Daemon::boot("close-idle", None);
        let mut idle = daemon.connect();
        assert_still_open(&mut idle);
        let mut first = daemon.connect();
        first
            .send(r#"{"v":"pml-serve/v1","op":"shutdown"}"#)
            .unwrap();
        let bye = read_reply(&mut first);
        assert_eq!(bye.get("stopping").and_then(Value::as_bool), Some(true));
        assert!(!idle.recv(&mut String::new()).unwrap(), "idle one closed");
        daemon.stop();
    }

    #[test]
    fn invalid_utf8_gets_a_parse_error_and_the_connection_stays_open() {
        let daemon = Daemon::boot("utf8", None);
        let mut client = daemon.connect();
        let in_string: &[u8] =
            b"{\"v\":\"pml-serve/v1\",\"id\":1,\"op\":\"predict\",\"cluster\":\"Fr\xffnt\"}\n";
        for frame in [in_string, b"\xff\n"] {
            client.stream().write_all(frame).unwrap();
            let reply = read_reply(&mut client);
            assert_eq!(error_kind(&reply), Some("parse"), "{reply:?}");
            assert_still_open(&mut client);
        }
        // A two-byte character split across two reads is one character.
        let frame = "{\"v\":\"pml-serve/v1\",\"id\":2,\"op\":\"predict\",\"cluster\":\"\u{e9}\",\"collective\":\"alltoall\",\"nodes\":2,\"ppn\":8,\"msg_size\":64}\n";
        let cut = frame.find('\u{e9}').unwrap() + 1;
        client.stream().write_all(&frame.as_bytes()[..cut]).unwrap();
        std::thread::sleep(Duration::from_millis(40));
        client.stream().write_all(&frame.as_bytes()[cut..]).unwrap();
        let reply = read_reply(&mut client);
        assert_eq!(reply.get("id").and_then(Value::as_u64), Some(2));
        assert_eq!(
            error_kind(&reply),
            Some("unsupported"),
            "no model is loaded"
        );
        assert_still_open(&mut client);
        daemon.stop();
    }

    #[test]
    fn connection_buffers_stay_within_their_two_constants() {
        let shared = test_shared();
        let (ours, theirs) = UnixStream::pair().unwrap();
        let mut conn = Conn::new(&shared, Arc::new(ours));
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut client = theirs.try_clone().unwrap();
                let mut reader = Client::from(theirs);
                // A frame sixteen times the cap: one error, then business
                // as usual.
                let mut flood = vec![b'a'; 1 << 20];
                flood.push(b'\n');
                client.write_all(&flood).unwrap();
                client.write_all(format!("{PING}\n").as_bytes()).unwrap();
                let reply = read_reply(&mut reader);
                assert_eq!(error_kind(&reply), Some("parse"), "{reply:?}");
                let message = reply.get("error").unwrap().get("message");
                assert!(message.and_then(Value::as_str).unwrap().contains("65536"));
                let pong = read_reply(&mut reader);
                assert_eq!(pong.get("id").and_then(Value::as_u64), Some(77));
                // Pongs outweigh pings, so one read's worth of these passes
                // the flush threshold before the buffer is drained.
                let pings = r#"{"v":"pml-serve/v1","op":"ping"}"#.to_string() + "\n";
                let writer = scope.spawn(move || {
                    client.write_all(pings.repeat(20_000).as_bytes()).unwrap();
                    client.shutdown(std::net::Shutdown::Write).unwrap();
                });
                // (`conn` outlives the scope, so there is no EOF to read to.)
                let mut line = String::new();
                let pongs = (0..20_000)
                    .filter(|_| reader.recv(&mut line).unwrap_or(false))
                    .count();
                assert_eq!(pongs, 20_000, "one pong per ping");
                writer.join().unwrap();
            });
            conn.run();
        });
        assert!(conn.out.capacity() <= 2 * OUT_FLUSH_BYTES);
        // `pending` holds one entry per reply in `out`, 43 bytes at least.
        assert!(conn.pending.capacity() <= 2 * OUT_FLUSH_BYTES / 43);
        assert_eq!(shared.counts.get(), (20_002, 1));
    }

    /// 64 frames — selects, pings, an unknown op and broken JSON in turn —
    /// each carrying its position as its id where it can.
    fn mixed_burst() -> String {
        (0..64)
            .map(|i| match i % 4 {
                0 => format!("{{\"v\":\"pml-serve/v1\",\"id\":{i},\"op\":\"ping\"}}\n"),
                1 => format!("{{\"v\":\"pml-serve/v1\",\"id\":{i},\"op\":\"dance\"}}\n"),
                2 => format!("{{\"id\":{i},nope\r\n"),
                _ => format!(
                    "{{\"v\":\"pml-serve/v1\",\"id\":{i},\"op\":\"select\",\"collective\":\"alltoall\",\"nodes\":2,\"ppn\":8,\"msg_size\":{}}}\n",
                    64 << (i % 11)
                ),
            })
            .collect()
    }

    fn read_lines(client: &mut Client, count: usize) -> Vec<String> {
        (0..count)
            .map(|_| {
                let mut line = String::new();
                client.recv(&mut line).unwrap();
                line
            })
            .collect()
    }

    /// Send `burst` on a fresh connection in one write, then on another one
    /// byte per `write`: the `count` replies must come back the same.
    fn answered_both_ways(daemon: &Daemon, burst: &str, count: usize) -> Vec<String> {
        let mut client = daemon.connect();
        client.stream().write_all(burst.as_bytes()).unwrap();
        let at_once = read_lines(&mut client, count);
        let mut client = daemon.connect();
        for byte in burst.as_bytes() {
            client
                .stream()
                .write_all(std::slice::from_ref(byte))
                .unwrap();
        }
        assert_eq!(read_lines(&mut client, count), at_once);
        at_once
    }

    #[test]
    fn a_burst_is_answered_in_order_however_it_is_delivered() {
        let daemon = Daemon::boot("burst", None);
        let at_once = answered_both_ways(&daemon, &mixed_burst(), 64);
        for (i, line) in at_once.iter().enumerate() {
            let reply: Value = serde_json::from_str(line.trim()).unwrap();
            let (id, ok) = (reply.get("id"), reply.get("ok"));
            match i % 4 {
                // Broken JSON carries no recoverable id.
                2 => assert_eq!((id, error_kind(&reply)), (None, Some("parse"))),
                1 => assert_eq!(error_kind(&reply), Some("op")),
                _ => assert_eq!(ok.and_then(Value::as_bool), Some(true), "{line}"),
            }
            if i % 4 != 2 {
                assert_eq!(id.and_then(Value::as_u64), Some(i as u64), "{line}");
            }
        }
        daemon.stop();
    }

    #[test]
    fn a_frame_cut_off_by_eof_is_still_answered() {
        let daemon = Daemon::boot("eof", None);
        for (frame, pong) in [(PING, true), (&PING[..20], false)] {
            let mut client = daemon.connect();
            client.stream().write_all(frame.as_bytes()).unwrap();
            client.stream().shutdown(std::net::Shutdown::Write).unwrap();
            let reply = read_reply(&mut client);
            assert_eq!(reply.get("pong").is_some(), pong, "{reply:?}");
            assert_eq!(error_kind(&reply).is_some(), !pong, "{reply:?}");
            let closed = !client.recv(&mut String::new()).unwrap();
            assert!(closed, "then the connection closes");
        }
        daemon.stop();
    }

    fn mini_model(collective: Collective) -> Arc<PretrainedModel> {
        use pml_core::{EngineConfig, SelectionEngine, TrainConfig};
        let mut cluster = pml_clusters::by_name("RI").expect("zoo cluster").clone();
        cluster.node_grid = vec![1, 2];
        cluster.ppn_grid = vec![2, 8];
        cluster.msg_grid = vec![16, 65536];
        let cfg = EngineConfig {
            datagen: pml_clusters::DatagenConfig::noiseless(),
            train: TrainConfig {
                forest: pml_mlcore::ForestParams {
                    n_estimators: 5,
                    seed: 3,
                    ..Default::default()
                },
                top_k_features: Some(5),
            },
            cache_dir: None,
        };
        SelectionEngine::with_clusters(vec![cluster], cfg)
            .train(collective)
            .expect("mini training succeeds")
    }

    #[test]
    fn replies_leave_before_the_thread_blocks() {
        // The batch worker answers nothing until `open` fires, so the
        // connection thread stays blocked in `submit` for as long as the
        // test likes.
        let (open, gate) = std::sync::mpsc::channel();
        let models = BTreeMap::from([(Collective::Alltoall, mini_model(Collective::Alltoall))]);
        let batcher = Batcher::gated(models, BatchConfig::default(), gate);
        let daemon = Daemon::boot("flush", Some(batcher));
        let mut client = daemon.connect();
        let shape = r#""collective":"alltoall","nodes":2,"ppn":8,"msg_size":64"#;
        let pair = format!(
            "{{\"v\":\"pml-serve/v1\",\"id\":1,\"op\":\"select\",{shape}}}\n\
             {{\"v\":\"pml-serve/v1\",\"id\":2,\"op\":\"predict\",\"cluster\":\"RI\",{shape}}}\n"
        );
        client.stream().write_all(pair.as_bytes()).unwrap();
        // The select reply is out although the predict behind it cannot
        // finish; the predict reply does not exist until the gate opens.
        let select = read_reply(&mut client);
        assert_eq!(select.get("id").and_then(Value::as_u64), Some(1));
        client.stream().set_nonblocking(true).unwrap();
        let early = client.recv(&mut String::new());
        client.stream().set_nonblocking(false).unwrap();
        assert_eq!(
            early.map_err(|e| e.kind()),
            Err(std::io::ErrorKind::WouldBlock),
            "predict answered through a closed gate"
        );
        open.send(()).unwrap();
        let predict = read_reply(&mut client);
        assert_eq!(predict.get("id").and_then(Value::as_u64), Some(2));
        assert_eq!(predict.get("ok").and_then(Value::as_bool), Some(true));

        // A watch tick is written directly: everything pipelined before it
        // must already be out, and what follows it comes after.
        let mut burst: String = (10..20)
            .map(|id| format!("{{\"v\":\"pml-serve/v1\",\"id\":{id},\"op\":\"select\",{shape}}}\n"))
            .collect();
        burst +=
            "{\"v\":\"pml-serve/v1\",\"id\":20,\"op\":\"watch\",\"interval_ms\":0,\"count\":1}\n";
        burst += &format!("{PING}\n");
        client.stream().write_all(burst.as_bytes()).unwrap();
        let replies: Vec<Value> = (0..12).map(|_| read_reply(&mut client)).collect();
        let ids: Vec<u64> = replies
            .iter()
            .map(|r| r.get("id").and_then(Value::as_u64).unwrap())
            .collect();
        assert_eq!(ids, (10..=20).chain([77]).collect::<Vec<u64>>());
        assert_eq!(replies[10].get("seq").and_then(Value::as_u64), Some(1));
        daemon.stop();
    }

    /// The alltoall and allgather mini models, keyed as a daemon holds them.
    fn two_models() -> BTreeMap<Collective, Arc<PretrainedModel>> {
        [Collective::Alltoall, Collective::Allgather]
            .into_iter()
            .map(|c| (c, mini_model(c)))
            .collect()
    }

    /// Request `i`'s shape: the two collectives in turn over RI's layouts.
    fn predict_shape(i: u64) -> (Collective, JobConfig) {
        let collective = [Collective::Alltoall, Collective::Allgather][i as usize % 2];
        let i = i as u32;
        (
            collective,
            JobConfig::new(1 + i % 4, 2 << (i % 3), 16 << (i % 13)),
        )
    }

    /// A `predict` frame for `cluster` with id `id`, and the reply a one-row
    /// `PretrainedModel::predict` renders to (newline included).
    fn predict_frame(
        models: &BTreeMap<Collective, Arc<PretrainedModel>>,
        id: u64,
        cluster: &str,
    ) -> (String, String) {
        let (collective, job) = predict_shape(id);
        let frame = format!(
            "{{\"v\":\"pml-serve/v1\",\"id\":{id},\"op\":\"predict\",\"cluster\":\"{cluster}\",\"collective\":\"{}\",\"nodes\":{},\"ppn\":{},\"msg_size\":{}}}\n",
            protocol::collective_wire_name(collective),
            job.nodes,
            job.ppn,
            job.msg_size
        );
        let reply = match pml_clusters::by_name(cluster) {
            Some(entry) => {
                let algo = models[&collective].predict(&entry.spec.node, job);
                protocol::render_predict(Some(id), algo)
            }
            None => {
                let msg = format!("unknown cluster {cluster:?} (see `pml-mpi zoo`)");
                let err = ProtoError::new(protocol::ErrorKind::Unsupported, msg);
                protocol::render_error(Some(id), &err)
            }
        };
        (frame, reply + "\n")
    }

    /// Sixteen predicts behind a ping in one write: the pong leaves before
    /// the connection waits, and the predicts leave the gated batcher as one
    /// flush of 16 rows, answered in request order as one-row calls answer.
    #[test]
    fn pipelined_predicts_share_one_flush() {
        let _serial = crate::batch::tests::serial();
        let models = two_models();
        let (open, gate) = std::sync::mpsc::channel();
        let batcher = Batcher::gated(models.clone(), BatchConfig::default(), gate);
        let daemon = Daemon::boot("coalesce", Some(batcher));
        let mut client = daemon.connect();
        let (frames, want): (Vec<_>, Vec<_>) =
            (0..16).map(|id| predict_frame(&models, id, "RI")).unzip();
        let (got, flushes) = crate::batch::tests::multi_row_flushes(|| {
            client
                .stream()
                .write_all((format!("{PING}\n") + &frames.concat()).as_bytes())
                .unwrap();
            // Out before the wait: every predict has been queued by now.
            let pong = read_reply(&mut client);
            assert_eq!(pong.get("id").and_then(Value::as_u64), Some(77));
            open.send(()).unwrap();
            read_lines(&mut client, 16)
        });
        assert_eq!(got, want);
        assert_eq!(flushes, [0, 0, 0, 1, 0], "one flush of 16 rows");
        daemon.stop();
    }

    /// Under `max_batch: 3` a connection waits once it has three predicts
    /// queued, so eight pipelined predicts leave as flushes of 3 + 3 + 2 and
    /// one client never holds more of the shared queue than a flush takes.
    #[test]
    fn a_connection_queues_at_most_max_batch_predicts() {
        let _serial = crate::batch::tests::serial();
        let models = two_models();
        let (open, gate) = std::sync::mpsc::channel();
        let cfg = BatchConfig {
            max_batch: 3,
            ..BatchConfig::default()
        };
        let batcher = Batcher::gated(models.clone(), cfg, gate);
        let daemon = Daemon::boot("max-batch", Some(batcher));
        let mut client = daemon.connect();
        let (frames, want): (Vec<_>, Vec<_>) =
            (0..8).map(|id| predict_frame(&models, id, "RI")).unzip();
        let (got, flushes) = crate::batch::tests::multi_row_flushes(|| {
            client
                .stream()
                .write_all((format!("{PING}\n") + &frames.concat()).as_bytes())
                .unwrap();
            read_reply(&mut client);
            // Each group's replies leave before the connection waits on the
            // next group, so the next group is queued once they are read.
            [3, 3, 2].map(|n| {
                open.send(()).unwrap();
                read_lines(&mut client, n)
            })
        });
        assert_eq!(got.concat(), want);
        assert_eq!(flushes, [1, 2, 0, 0, 0], "flushes of 3, 3 and 2 rows");
        daemon.stop();
    }

    /// Predicts interleaved with every other kind of frame: each reply in
    /// its request's place, however the burst is delivered.
    #[test]
    fn predicts_among_other_frames_are_answered_in_order() {
        let _serial = crate::batch::tests::serial();
        let models = two_models();
        let batcher = Batcher::new(models.clone(), BatchConfig::default(), None);
        let daemon = Daemon::boot("mixed-predict", Some(batcher));
        let tuner = test_tuner();
        let (mut burst, mut want) = (String::new(), Vec::new());
        for id in 0..36 {
            let (frame, reply) = match id % 6 {
                0 | 5 => predict_frame(&models, id, "RI"),
                1 => {
                    let job = JobConfig::new(2, 8, 64 << (id % 11));
                    let (algo, depth) = tuner.select_traced(Collective::Alltoall, job);
                    (
                        format!("{{\"v\":\"pml-serve/v1\",\"id\":{id},\"op\":\"select\",\"collective\":\"alltoall\",\"nodes\":2,\"ppn\":8,\"msg_size\":{}}}\n", job.msg_size),
                        protocol::render_select(Some(id), algo, depth) + "\n",
                    )
                }
                2 => (
                    format!("{{\"v\":\"pml-serve/v1\",\"id\":{id},\"op\":\"ping\"}}\n"),
                    protocol::render_pong(Some(id)) + "\n",
                ),
                3 => (format!("{{\"id\":{id},nope\n"), String::new()),
                _ => predict_frame(&models, id, "Atlantis"),
            };
            burst += &frame;
            want.push(reply);
        }
        let got = answered_both_ways(&daemon, &burst, want.len());
        for (id, (got, want)) in got.iter().zip(&want).enumerate() {
            if id % 6 == 3 {
                // Broken JSON carries no recoverable id.
                let reply: Value = serde_json::from_str(got.trim()).unwrap();
                assert_eq!(error_kind(&reply), Some("parse"), "{got}");
                assert_eq!(reply.get("id"), None, "{got}");
            } else {
                assert_eq!(got, want, "request {id}");
            }
        }
        daemon.stop();
    }
}
