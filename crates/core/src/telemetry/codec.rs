//! The JSONL record format, written and read in one place: the hub
//! writes every line through [`TelemetryEvent::encode`],
//! [`RunHeader::encode`] and [`RunFooter::encode`], and
//! [`Record::parse`] reads each back. Record field names are spelled
//! here and, apart from tests, only in the analyzer's
//! `audit_telemetry`, the format's validator.

use super::SCHEMA_VERSION;
use super::{AlertSeverity, HistogramSnapshot, KernelClass, KernelStats, RunInfo, TelemetryEvent};
use crate::json::{self, Json, Obj};

/// The `run_header` record, first in every stream.
#[derive(Debug, Clone, PartialEq)]
pub struct RunHeader {
    /// `"debug"` or `"release"`.
    pub build: String,
    pub info: RunInfo,
    /// Kernels timed before the sink opened (an app's setup): they have
    /// no span record, so a stream cut before its footer still
    /// accounts for them.
    pub kernels: Vec<(String, KernelStats)>,
}

/// The `run_footer` record: the final aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct RunFooter {
    pub open_spans: u64,
    pub total_ms: f64,
    /// Records in the stream, this footer included.
    pub events: u64,
    pub traces_dropped: u64,
    pub kernels: Vec<(String, KernelStats)>,
    pub counters: Vec<(String, u64)>,
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

/// One line of a telemetry stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    Header(RunHeader),
    /// A span, decision, step or alert record, as the event it was
    /// written from. A gauge that was not finite is written as `null`
    /// and reads back as NaN.
    Event(TelemetryEvent<'static>),
    Footer(RunFooter),
}

/// An event record's head: its type, `step` (inside a step only) and
/// `ts`.
fn event(ty: &str, step: Option<u64>, ts_us: u64) -> Obj {
    let o = Obj::default().str("type", ty);
    match step {
        Some(step) => o.raw("step", step),
        None => o,
    }
    .raw("ts", ts_us)
}

/// The `kernels` array of the header and the footer.
fn kernel_rows(rows: &[(String, KernelStats)]) -> String {
    json::array(rows.iter().map(|(name, k)| {
        let class = k.class.map(|c| json::quote(c.as_str()));
        Obj::default()
            .str("name", name)
            .raw("class", class.as_deref().unwrap_or("null"))
            .raw("calls", k.calls)
            .raw("seconds", json::num(k.seconds))
            .raw("bytes", k.bytes)
            .raw("flops", k.flops)
            .end()
    }))
}

impl TelemetryEvent<'_> {
    /// The event's JSONL record.
    pub fn encode(&self) -> String {
        use TelemetryEvent as E;
        let obj = match self {
            E::SpanClose {
                name,
                path,
                depth,
                ms,
                step,
                ts_us,
            } => event("span", *step, *ts_us)
                .str("name", name)
                .str("path", path)
                .raw("depth", depth)
                .raw("ms", json::num(*ms)),
            E::Decision {
                name,
                text,
                step,
                ts_us,
            } => event("decision", *step, *ts_us)
                .str("name", name)
                .str("text", text),
            E::StepEnd {
                step,
                ms,
                ts_us,
                gauges,
                counters,
            } => event("step", Some(*step), *ts_us)
                .raw("ms", json::num(*ms))
                .raw(
                    "gauges",
                    json::object(gauges.iter().map(|(k, v)| (k, json::num(*v)))),
                )
                .raw(
                    "counters",
                    json::object(counters.iter().map(|(k, v)| (k, v))),
                ),
            E::Alert {
                rule,
                severity,
                message,
                step,
                ts_us,
            } => event("alert", *step, *ts_us)
                .str("rule", rule)
                .str("severity", severity.as_str())
                .str("message", message),
        };
        obj.end()
    }
}

impl RunHeader {
    /// The header record: schema, app, config hash, build, threads,
    /// then `info.extra` as string fields and the kernel rows (when
    /// there are any).
    pub fn encode(&self) -> String {
        let info = &self.info;
        let mut o = Obj::default()
            .str("type", "run_header")
            .raw("schema", SCHEMA_VERSION)
            .str("app", &info.app)
            .str("config_hash", &info.config_hash)
            .str("build", &self.build)
            .raw("threads", info.threads);
        for (k, v) in &info.extra {
            o = o.str(k, v);
        }
        if !self.kernels.is_empty() {
            o = o.raw("kernels", kernel_rows(&self.kernels));
        }
        o.end()
    }
}

impl RunFooter {
    /// The footer record. A histogram's buckets are written sparsely
    /// as `[index, count]` pairs, and an empty one's `min` as 0.
    pub fn encode(&self) -> String {
        let hist = |h: &HistogramSnapshot| {
            let buckets = h.buckets.iter().enumerate().filter(|(_, &c)| c > 0);
            Obj::default()
                .raw("count", h.count)
                .raw("sum", h.sum)
                .raw("min", if h.count == 0 { 0 } else { h.min })
                .raw("max", h.max)
                .raw(
                    "buckets",
                    json::array(buckets.map(|(b, c)| format!("[{b},{c}]"))),
                )
                .end()
        };
        Obj::default()
            .str("type", "run_footer")
            .raw("open_spans", self.open_spans)
            .raw("total_ms", json::num(self.total_ms))
            .raw("events", self.events)
            .raw("traces_dropped", self.traces_dropped)
            .raw("kernels", kernel_rows(&self.kernels))
            .raw(
                "counters",
                json::object(self.counters.iter().map(|(k, v)| (k, v))),
            )
            .raw(
                "histograms",
                json::object(self.histograms.iter().map(|(k, h)| (k, hist(h)))),
            )
            .end()
    }
}

/// `v[key]` through `f`, or an error naming the key.
fn get<'a, T>(v: &'a Json, key: &str, f: impl FnOnce(&'a Json) -> Option<T>) -> Result<T, String> {
    let bad = || format!("\"{key}\" missing or malformed");
    v.get(key).and_then(f).ok_or_else(bad)
}

fn text(v: &Json, key: &str) -> Result<String, String> {
    get(v, key, Json::as_str).map(str::to_string)
}

/// The fields of object `v[key]`, each value through `f`.
fn fields<T>(
    v: &Json,
    key: &str,
    f: impl Fn(&Json) -> Option<T>,
) -> Result<Vec<(String, T)>, String> {
    let bad = |k: &str| format!("\"{key}\": \"{k}\" malformed");
    let obj = get(v, key, Json::as_obj)?;
    obj.iter()
        .map(|(k, x)| f(x).map(|t| (k.clone(), t)).ok_or_else(|| bad(k)))
        .collect()
}

fn kernels(v: &Json) -> Result<Vec<(String, KernelStats)>, String> {
    let row = |k: &Json| {
        let class = match get(k, "class", Some)? {
            Json::Null => None,
            c => Some(
                c.as_str()
                    .and_then(KernelClass::from_str_opt)
                    .ok_or("\"class\" malformed")?,
            ),
        };
        let stats = KernelStats {
            calls: get(k, "calls", Json::as_u64)?,
            seconds: get(k, "seconds", Json::as_f64)?,
            bytes: get(k, "bytes", Json::as_u64)?,
            flops: get(k, "flops", Json::as_u64)?,
            class,
        };
        Ok((text(k, "name")?, stats))
    };
    get(v, "kernels", Json::as_arr)?.iter().map(row).collect()
}

fn histogram(h: &Json) -> Option<HistogramSnapshot> {
    let count = h.get("count")?.as_u64()?;
    let mut s = HistogramSnapshot {
        count,
        sum: h.get("sum")?.as_u64()?,
        min: if count == 0 {
            u64::MAX
        } else {
            h.get("min")?.as_u64()?
        },
        max: h.get("max")?.as_u64()?,
        ..HistogramSnapshot::default()
    };
    for pair in h.get("buckets")?.as_arr()? {
        let [b, c] = pair.as_arr()? else { return None };
        *s.buckets.get_mut(b.as_u64()? as usize)? = c.as_u64()?;
    }
    Some(s)
}

impl Record {
    /// Read one stream line. Every field the writer emits is required,
    /// `ts` included; only what the writer omits may be absent: `step`
    /// outside a step, and the header's `kernels` when empty.
    pub fn parse(line: &str) -> Result<Record, String> {
        use TelemetryEvent as E;
        let v = json::parse(line)?;
        let ts_us = || get(&v, "ts", Json::as_u64);
        let step = || match v.get("step") {
            Some(_) => get(&v, "step", Json::as_u64).map(Some),
            None => Ok(None),
        };
        Ok(match get(&v, "type", Json::as_str)? {
            "run_header" => {
                if get(&v, "schema", Json::as_u64)? != SCHEMA_VERSION {
                    return Err(format!("schema is not {SCHEMA_VERSION}"));
                }
                let extra = v.as_obj().unwrap_or_default().iter().filter(|(k, _)| {
                    let fixed = ["type", "schema", "app", "config_hash", "build", "threads"];
                    !fixed.contains(&k.as_str()) && k != "kernels"
                });
                let info = RunInfo {
                    app: text(&v, "app")?,
                    config_hash: text(&v, "config_hash")?,
                    threads: get(&v, "threads", Json::as_u64)? as usize,
                    extra: extra
                        .map(|(k, x)| match x.as_str() {
                            Some(x) => Ok((k.clone(), x.to_string())),
                            None => Err(format!("\"{k}\" malformed")),
                        })
                        .collect::<Result<_, String>>()?,
                };
                Record::Header(RunHeader {
                    build: text(&v, "build")?,
                    info,
                    kernels: match v.get("kernels") {
                        Some(_) => kernels(&v)?,
                        None => Vec::new(),
                    },
                })
            }
            "run_footer" => Record::Footer(RunFooter {
                open_spans: get(&v, "open_spans", Json::as_u64)?,
                total_ms: get(&v, "total_ms", Json::as_f64)?,
                events: get(&v, "events", Json::as_u64)?,
                traces_dropped: get(&v, "traces_dropped", Json::as_u64)?,
                kernels: kernels(&v)?,
                counters: fields(&v, "counters", Json::as_u64)?,
                histograms: fields(&v, "histograms", histogram)?,
            }),
            "span" => Record::Event(E::SpanClose {
                name: text(&v, "name")?.into(),
                path: text(&v, "path")?.into(),
                depth: get(&v, "depth", Json::as_u64)? as usize,
                ms: get(&v, "ms", Json::as_f64)?,
                step: step()?,
                ts_us: ts_us()?,
            }),
            "decision" => Record::Event(E::Decision {
                name: text(&v, "name")?.into(),
                text: text(&v, "text")?.into(),
                step: step()?,
                ts_us: ts_us()?,
            }),
            "step" => Record::Event(E::StepEnd {
                step: get(&v, "step", Json::as_u64)?,
                ms: get(&v, "ms", Json::as_f64)?,
                ts_us: ts_us()?,
                gauges: fields(&v, "gauges", |g| match g {
                    Json::Null => Some(f64::NAN),
                    g => g.as_f64(),
                })?
                .into(),
                counters: fields(&v, "counters", Json::as_u64)?.into(),
            }),
            "alert" => Record::Event(E::Alert {
                rule: text(&v, "rule")?.into(),
                severity: get(&v, "severity", |s| {
                    s.as_str().and_then(AlertSeverity::from_str_opt)
                })?,
                message: text(&v, "message")?.into(),
                step: step()?,
                ts_us: ts_us()?,
            }),
            other => return Err(format!("unknown record type {other:?}")),
        })
    }
}
