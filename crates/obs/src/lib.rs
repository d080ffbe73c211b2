//! `oppic-obs` — the live observability plane (DESIGN.md §6).
//!
//! The hub's JSONL sink is post-mortem: a stream read after the run
//! ends. This crate layers *live* introspection over the same hub
//! through its [`EventObserver`] tap, which sits on the hub's one
//! publish path beside the sink: the observer receives exactly the
//! events the stream records. Four pieces:
//!
//! * [`recorder::FlightRecorder`] — a fixed-size, lock-light ring of
//!   the hub's recent events, dumped as the stream's own records in a
//!   CRC-64-footed binary file on panic, watchdog alert, recovery
//!   rollback, or chaos verdict;
//! * [`metrics::MetricsRegistry`] + [`exporter::MetricsServer`] —
//!   Prometheus-style text exposition served from a tiny blocking
//!   HTTP listener (`--metrics-addr`), with a snapshot-on-SIGUSR1
//!   fallback;
//! * [`timeline`] — a merged Chrome-trace/Perfetto JSON view
//!   interleaving telemetry spans with `ScheduleTrace` loops and
//!   exchanges (`oppic-report --timeline`);
//! * [`watchdog::Watchdog`] — declarative per-step anomaly rules
//!   (step-time EWMA regression, alive-count discontinuity,
//!   quarantine bursts, retransmit storms) raising structured alert
//!   events that feed exit codes.
//!
//! [`ObsPlane`] ties them together behind one install/on_step/finish
//! lifecycle; [`ObsArgs`] holds its flags, and [`cli`] is the one front
//! end of both app binaries: their flags, telemetry sink, run loop and
//! exit codes.

pub mod cli;
pub mod exporter;
pub mod metrics;
pub mod recorder;
pub mod timeline;
pub mod watchdog;

pub use exporter::MetricsServer;
pub use metrics::{audit_exposition, MetricsRegistry, METRIC_SCHEMA};
pub use recorder::{FlightDump, FlightRecorder};
pub use watchdog::{Alert, StepObs, Watchdog, WatchdogConfig};

use cli::{take_flag, take_value};
use oppic_core::telemetry::{EventObserver, Telemetry, TelemetryEvent};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Plane configuration (see [`ObsArgs`] for the CLI mapping).
#[derive(Debug, Clone)]
pub struct ObsConfig {
    pub app: String,
    pub threads: usize,
    /// Dump target for panic / alert / forced dumps. `None` keeps the
    /// ring memory-only.
    pub recorder_dump: Option<PathBuf>,
    /// `host:port` for the HTTP exporter (`0` port for ephemeral).
    pub metrics_addr: Option<String>,
    /// Snapshot path: written on SIGUSR1 and once at `finish()`.
    pub metrics_dump: Option<PathBuf>,
    /// Watchdog rules; `None` disables the watchdog.
    pub watchdog: Option<WatchdogConfig>,
    /// Chain a panic hook that dumps the recorder (binaries only —
    /// tests must not install global hooks).
    pub panic_hook: bool,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            app: "oppic".into(),
            threads: 1,
            recorder_dump: None,
            metrics_addr: None,
            metrics_dump: None,
            watchdog: None,
            panic_hook: false,
        }
    }
}

/// End-of-run summary returned by [`ObsPlane::finish`].
#[derive(Debug, Clone)]
pub struct ObsSummary {
    pub alerts: Vec<Alert>,
    /// Flight-recorder dumps written (panic dumps excluded — the
    /// process is gone by then).
    pub dumps: u64,
    pub recorder_events: u64,
    pub recorder_dropped: u64,
    /// Where the final metrics snapshot went, if anywhere.
    pub metrics_snapshot: Option<PathBuf>,
}

/// The hub-side observer: forwards every event into the ring and
/// dumps the ring when an alert passes through.
struct PlaneObserver {
    recorder: Arc<FlightRecorder>,
    dump_path: Option<PathBuf>,
    dumps: Arc<AtomicU64>,
    dumping: AtomicBool,
}

impl EventObserver for PlaneObserver {
    fn on_event(&self, ev: &TelemetryEvent<'_>) {
        self.recorder.on_event(ev);
        if let TelemetryEvent::Alert { .. } = ev {
            if let Some(path) = &self.dump_path {
                // One dump at a time; a failed write must not take the
                // run down with it.
                if !self.dumping.swap(true, Ordering::SeqCst) {
                    if self.recorder.dump_to(path).is_ok() {
                        self.dumps.fetch_add(1, Ordering::Relaxed);
                    }
                    self.dumping.store(false, Ordering::SeqCst);
                }
            }
        }
    }
}

/// The installed observability plane. Owns the recorder, registry,
/// exporter, and watchdog; detaches everything on [`Self::finish`].
pub struct ObsPlane {
    tel: Arc<Telemetry>,
    recorder: Arc<FlightRecorder>,
    registry: Arc<MetricsRegistry>,
    server: Option<MetricsServer>,
    watchdog: Option<Watchdog>,
    metrics_dump: Option<PathBuf>,
    dumps: Arc<AtomicU64>,
    finished: bool,
}

impl ObsPlane {
    /// Build the plane and attach it to `tel` as the live observer.
    pub fn install(tel: Arc<Telemetry>, cfg: ObsConfig) -> io::Result<ObsPlane> {
        let recorder = Arc::new(FlightRecorder::new(recorder::DEFAULT_CAPACITY));
        let registry = Arc::new(MetricsRegistry::new(tel.clone(), &cfg.app, cfg.threads));
        registry.set_recorder(recorder.clone());
        let dumps = Arc::new(AtomicU64::new(0));
        let server = match &cfg.metrics_addr {
            Some(addr) => Some(MetricsServer::serve(registry.clone(), addr)?),
            None => None,
        };
        if cfg.metrics_dump.is_some() {
            exporter::install_sigusr1();
        }
        tel.set_observer(Some(Arc::new(PlaneObserver {
            recorder: recorder.clone(),
            dump_path: cfg.recorder_dump.clone(),
            dumps: dumps.clone(),
            dumping: AtomicBool::new(false),
        })));
        if cfg.panic_hook {
            if let Some(path) = cfg.recorder_dump.clone() {
                let recorder = recorder.clone();
                let prev = std::panic::take_hook();
                std::panic::set_hook(Box::new(move |info| {
                    let _ = recorder.dump_to(&path);
                    prev(info);
                }));
            }
        }
        Ok(ObsPlane {
            tel,
            recorder,
            registry,
            server,
            watchdog: cfg.watchdog.map(Watchdog::new),
            metrics_dump: cfg.metrics_dump,
            dumps,
            finished: false,
        })
    }

    /// The bound exporter address, if one is serving.
    pub fn metrics_addr(&self) -> Option<std::net::SocketAddr> {
        self.server.as_ref().map(MetricsServer::addr)
    }

    /// Shared handle to the ring (conformance wires it into faulted
    /// drivers).
    pub fn recorder(&self) -> Arc<FlightRecorder> {
        self.recorder.clone()
    }

    /// Feed one completed step: update the live gauges, service a
    /// pending SIGUSR1 snapshot, and run the watchdog rules. Newly
    /// raised alerts are returned (already published on the hub).
    pub fn on_step(&mut self, obs: StepObs) -> Vec<Alert> {
        self.registry.set_gauge("oppic_step", obs.step as f64);
        self.registry.set_gauge("oppic_step_seconds", obs.ms / 1e3);
        self.registry
            .set_gauge("oppic_alive_particles", obs.alive as f64);
        if exporter::sigusr1_pending() {
            if let Some(path) = &self.metrics_dump {
                let _ = std::fs::write(path, self.registry.render());
            }
        }
        let Some(wd) = self.watchdog.as_mut() else {
            return Vec::new();
        };
        let new = wd.observe(&obs, Some(&self.tel));
        for a in &new {
            // Publishing on the hub records the alert event, bumps the
            // counters, and (via the observer) dumps the ring.
            self.tel.alert(a.rule, a.severity, &a.message);
        }
        new
    }

    /// All watchdog alerts raised so far.
    pub fn alerts(&self) -> &[Alert] {
        self.watchdog.as_ref().map_or(&[], |w| w.alerts())
    }

    /// Tear the plane down: write the final metrics snapshot (through
    /// the live HTTP listener when one is up, so the scrape path is
    /// exercised end-to-end), stop the exporter, and detach the
    /// observer.
    pub fn finish(&mut self) -> io::Result<ObsSummary> {
        self.finished = true;
        let mut metrics_snapshot = None;
        if let Some(path) = &self.metrics_dump {
            let text = match self.server.as_ref().map(MetricsServer::addr) {
                Some(addr) => {
                    exporter::scrape(&addr, "/metrics").unwrap_or_else(|_| self.registry.render())
                }
                None => self.registry.render(),
            };
            std::fs::write(path, text)?;
            metrics_snapshot = Some(path.clone());
        }
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        self.tel.set_observer(None);
        Ok(ObsSummary {
            alerts: self.alerts().to_vec(),
            dumps: self.dumps.load(Ordering::Relaxed),
            recorder_events: self.recorder.total(),
            recorder_dropped: self.recorder.dropped(),
            metrics_snapshot,
        })
    }
}

impl Drop for ObsPlane {
    fn drop(&mut self) {
        if !self.finished {
            let _ = self.finish();
        }
    }
}

/// The observability flags of the app front end ([`cli::Cli`]):
///
/// ```text
/// --flight-recorder <path>   ring dump target (enables the recorder)
/// --metrics-addr <addr>      serve GET /metrics on host:port
/// --metrics-dump <path>      snapshot on SIGUSR1 and at exit
/// --watchdog                 arm the default anomaly rules
/// --obs-inject-stall <step>  negative control: sleep ~300 ms in step N
/// ```
#[derive(Debug, Clone, Default)]
pub struct ObsArgs {
    pub flight_recorder: Option<PathBuf>,
    pub metrics_addr: Option<String>,
    pub metrics_dump: Option<PathBuf>,
    pub watchdog: bool,
    pub inject_stall_step: Option<u64>,
}

impl ObsArgs {
    /// Strip the observability flags out of `args`.
    pub fn extract(args: &mut Vec<String>) -> Result<ObsArgs, String> {
        let mut out = ObsArgs {
            watchdog: take_flag(args, "--watchdog"),
            ..ObsArgs::default()
        };
        out.flight_recorder = take_value(args, "--flight-recorder")?.map(PathBuf::from);
        out.metrics_addr = take_value(args, "--metrics-addr")?;
        out.metrics_dump = take_value(args, "--metrics-dump")?.map(PathBuf::from);
        out.inject_stall_step = match take_value(args, "--obs-inject-stall")? {
            None => None,
            Some(v) => Some(
                v.parse::<u64>()
                    .map_err(|_| format!("--obs-inject-stall {v:?}: not a step number"))?,
            ),
        };
        Ok(out)
    }

    /// Whether any plane feature was requested.
    pub fn enabled(&self) -> bool {
        self.flight_recorder.is_some()
            || self.metrics_addr.is_some()
            || self.metrics_dump.is_some()
            || self.watchdog
    }

    /// Install the plane for these flags (`None` when disabled).
    pub fn build(
        &self,
        tel: &Arc<Telemetry>,
        app: &str,
        threads: usize,
    ) -> io::Result<Option<ObsPlane>> {
        if !self.enabled() {
            return Ok(None);
        }
        let cfg = ObsConfig {
            app: app.to_string(),
            threads,
            recorder_dump: self.flight_recorder.clone(),
            metrics_addr: self.metrics_addr.clone(),
            metrics_dump: self.metrics_dump.clone(),
            watchdog: self.watchdog.then(WatchdogConfig::default),
            panic_hook: true,
        };
        ObsPlane::install(tel.clone(), cfg).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oppic_core::telemetry::AlertSeverity;

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("oppic_obs_{tag}_{}.bin", std::process::id()))
    }

    #[test]
    fn obs_args_extract_and_roundtrip() {
        let mut args: Vec<String> = [
            "fempic",
            "cfg.cfg",
            "--watchdog",
            "--flight-recorder",
            "fr.bin",
            "--metrics-addr",
            "127.0.0.1:0",
            "--obs-inject-stall",
            "7",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let obs = ObsArgs::extract(&mut args).unwrap();
        assert_eq!(args, vec!["fempic".to_string(), "cfg.cfg".to_string()]);
        assert!(obs.watchdog);
        assert!(obs.enabled());
        assert_eq!(
            obs.flight_recorder.as_deref(),
            Some(std::path::Path::new("fr.bin"))
        );
        assert_eq!(obs.metrics_addr.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(obs.inject_stall_step, Some(7));

        let mut none: Vec<String> = vec!["fempic".into()];
        let obs = ObsArgs::extract(&mut none).unwrap();
        assert!(!obs.enabled());

        let mut bad: Vec<String> = vec!["fempic".into(), "--metrics-addr".into()];
        assert!(ObsArgs::extract(&mut bad).is_err());
    }

    #[test]
    fn plane_records_alerts_and_dumps_on_alert() {
        let dump = tmp("alertdump");
        std::fs::remove_file(&dump).ok();
        let tel = Arc::new(Telemetry::new());
        let mut plane = ObsPlane::install(
            tel.clone(),
            ObsConfig {
                recorder_dump: Some(dump.clone()),
                watchdog: Some(WatchdogConfig::default()),
                ..ObsConfig::default()
            },
        )
        .unwrap();
        // Quiet warmup, then a 300 ms stall.
        for s in 1..=10 {
            tel.begin_step(s);
            tel.counter_add("work", 1);
            tel.end_step(&[]);
            let ms = if s == 9 { 300.0 } else { 1.0 };
            let alerts = plane.on_step(StepObs {
                step: s,
                ms,
                alive: 100,
                injected: 0,
                removed: 0,
            });
            assert_eq!(alerts.len(), usize::from(s == 9), "step {s}: {alerts:?}");
        }
        assert_eq!(plane.alerts().len(), 1);
        assert_eq!(plane.alerts()[0].rule, watchdog::RULE_STEP_TIME);
        assert_eq!(tel.alert_total(), 1);
        let summary = plane.finish().unwrap();
        assert_eq!(summary.alerts.len(), 1);
        assert_eq!(summary.dumps, 1);
        assert!(!tel.observer_is_attached());

        // The dump parses: the alert is its newest record, and the step
        // records before it carry each step's counter deltas.
        let bytes = std::fs::read(&dump).unwrap();
        let parsed = FlightDump::parse(&bytes).unwrap();
        let (last, before) = parsed.events.split_last().unwrap();
        assert!(
            matches!(last, TelemetryEvent::Alert { rule, severity: AlertSeverity::Critical, .. }
                if rule == watchdog::RULE_STEP_TIME),
            "{last:?}"
        );
        let steps: Vec<(u64, Vec<(String, u64)>)> = before
            .iter()
            .filter_map(|ev| match ev {
                TelemetryEvent::StepEnd { step, counters, .. } => Some((*step, counters.to_vec())),
                _ => None,
            })
            .collect();
        let work = |s| (s, vec![("work".to_string(), 1)]);
        assert_eq!(steps, (1..=9).map(work).collect::<Vec<_>>());
        std::fs::remove_file(&dump).ok();
    }

    #[test]
    fn fault_free_plane_raises_nothing_and_snapshots_metrics() {
        let snap = tmp("metricsnap");
        std::fs::remove_file(&snap).ok();
        let tel = Arc::new(Telemetry::new());
        let mut plane = ObsPlane::install(
            tel.clone(),
            ObsConfig {
                metrics_addr: Some("127.0.0.1:0".into()),
                metrics_dump: Some(snap.clone()),
                watchdog: Some(WatchdogConfig::default()),
                ..ObsConfig::default()
            },
        )
        .unwrap();
        assert!(plane.metrics_addr().is_some());
        for s in 1..=20 {
            tel.begin_step(s);
            tel.end_step(&[]);
            let alerts = plane.on_step(StepObs {
                step: s,
                ms: 1.0,
                alive: 50 + s,
                injected: 1,
                removed: 0,
            });
            assert!(alerts.is_empty(), "step {s}: {alerts:?}");
        }
        let summary = plane.finish().unwrap();
        assert!(summary.alerts.is_empty());
        assert_eq!(summary.dumps, 0);
        assert!(summary.recorder_events > 0);
        let text = std::fs::read_to_string(&snap).unwrap();
        audit_exposition(&text).unwrap_or_else(|e| panic!("{e:?}"));
        assert!(text.contains("oppic_step 20"));
        assert!(text.contains("oppic_alive_particles 70"));
        std::fs::remove_file(&snap).ok();
    }
}
