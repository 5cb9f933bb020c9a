//! Per-run manifests: a JSON sidecar capturing enough provenance to
//! reproduce and compare benchmark runs (seed, CLI args, wall time, and a
//! full dump of the metrics registry at capture time).

use crate::json::Json;
use crate::{mode, snapshot, MetricSnapshot};
use std::io::Write;
use std::path::Path;

/// Provenance record for one benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// Logical run name (usually the table/CSV stem, e.g. `fig3_gap`).
    pub name: String,
    /// RNG seed the run used, when the binary reported one.
    pub seed: Option<u64>,
    /// Full command-line arguments (argv[1..]).
    pub args: Vec<String>,
    /// Wall-clock duration of the run in seconds.
    pub wall_seconds: f64,
    /// Observability mode the run executed under (`off`/`summary`/`trace`).
    pub mode: String,
    /// Worker-thread count the run's `dcn_exec` pools fanned out to.
    /// Excluded from manifest diffs: the determinism contract says results
    /// must not depend on it.
    pub threads: u64,
    /// Metrics registry dump: (metric name, kind, field name/value pairs).
    pub metrics: Vec<ManifestMetric>,
}

/// One metric entry in a manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestMetric {
    /// Metric name, e.g. `mcf.fptas.augmentations`.
    pub name: String,
    /// Metric kind: `counter`, `gauge`, `histogram`, or `span`.
    pub kind: String,
    /// Exported fields, e.g. `[("value", 42.0)]` or `[("p50", 1.2), ...]`.
    pub fields: Vec<(String, f64)>,
}

impl RunManifest {
    /// Captures the current registry state into a manifest.
    ///
    /// `wall_seconds` is supplied by the caller (typically measured from
    /// process start) so manifests are meaningful even under `DCN_OBS=off`.
    pub fn capture(
        name: &str,
        seed: Option<u64>,
        wall_seconds: f64,
        threads: usize,
    ) -> RunManifest {
        let metrics = snapshot()
            .into_iter()
            .map(|m: MetricSnapshot| ManifestMetric {
                name: m.name.to_string(),
                kind: m.kind.to_string(),
                fields: m
                    .fields
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            })
            .collect();
        RunManifest {
            name: name.to_string(),
            seed,
            args: std::env::args().skip(1).collect(),
            wall_seconds,
            mode: mode().name().to_string(),
            threads: threads as u64,
            metrics,
        }
    }

    /// Serialises to pretty JSON.
    pub fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                Json::obj([
                    ("name", Json::from(m.name.as_str())),
                    ("kind", Json::from(m.kind.as_str())),
                    (
                        "fields",
                        Json::Obj(
                            m.fields
                                .iter()
                                .map(|(k, v)| (k.clone(), Json::Num(*v)))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("name", Json::from(self.name.as_str())),
            (
                "seed",
                match self.seed {
                    Some(s) => Json::from(s),
                    None => Json::Null,
                },
            ),
            (
                "args",
                Json::Arr(self.args.iter().map(|a| Json::from(a.as_str())).collect()),
            ),
            ("wall_seconds", Json::Num(self.wall_seconds)),
            ("mode", Json::from(self.mode.as_str())),
            ("threads", Json::from(self.threads)),
            ("metrics", Json::Arr(metrics)),
        ])
        .to_string_pretty()
    }

    /// Parses a manifest back from JSON (inverse of [`RunManifest::to_json`]).
    pub fn from_json(text: &str) -> Result<RunManifest, String> {
        let v = Json::parse(text).map_err(|e| e.to_string())?;
        let name = v
            .get("name")
            .and_then(Json::as_str)
            .ok_or("missing name")?
            .to_string();
        let seed = match v.get("seed") {
            Some(Json::Null) | None => None,
            Some(j) => Some(j.as_u64().ok_or("seed not a u64")?),
        };
        let args = v
            .get("args")
            .and_then(Json::as_array)
            .unwrap_or(&[])
            .iter()
            .map(|a| a.as_str().map(str::to_string).ok_or("arg not a string"))
            .collect::<Result<Vec<_>, _>>()?;
        let wall_seconds = v
            .get("wall_seconds")
            .and_then(Json::as_f64)
            .ok_or("missing wall_seconds")?;
        let mode = v
            .get("mode")
            .and_then(Json::as_str)
            .unwrap_or("off")
            .to_string();
        // Manifests written before the exec pool existed carry no thread
        // count; 0 marks "unrecorded".
        let threads = v.get("threads").and_then(Json::as_u64).unwrap_or(0);
        let mut metrics = Vec::new();
        for m in v.get("metrics").and_then(Json::as_array).unwrap_or(&[]) {
            let mname = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric missing name")?
                .to_string();
            let kind = m
                .get("kind")
                .and_then(Json::as_str)
                .ok_or("metric missing kind")?
                .to_string();
            let mut fields = Vec::new();
            if let Some(Json::Obj(pairs)) = m.get("fields") {
                for (k, fv) in pairs {
                    fields.push((k.clone(), fv.as_f64().ok_or("field not numeric")?));
                }
            }
            metrics.push(ManifestMetric {
                name: mname,
                kind,
                fields,
            });
        }
        Ok(RunManifest {
            name,
            seed,
            args,
            wall_seconds,
            mode,
            threads,
            metrics,
        })
    }

    /// Writes the manifest next to a results file, as `<stem>.manifest.json`.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        crate::lock::assert_unlocked("RunManifest::write_to");
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_json().as_bytes())?;
        f.write_all(b"\n")
    }

    /// Convenience: looks up a metric's field value by name.
    pub fn metric_field(&self, metric: &str, field: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == metric)
            .and_then(|m| m.fields.iter().find(|(k, _)| k == field))
            .map(|(_, v)| *v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let m = RunManifest {
            name: "fig3_gap".into(),
            seed: Some(42),
            args: vec!["--quick".into()],
            wall_seconds: 1.25,
            mode: "summary".into(),
            threads: 4,
            metrics: vec![ManifestMetric {
                name: "mcf.fptas.phases".into(),
                kind: "counter".into(),
                fields: vec![("value".into(), 17.0)],
            }],
        };
        let text = m.to_json();
        let back = RunManifest::from_json(&text).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.metric_field("mcf.fptas.phases", "value"), Some(17.0));
    }

    #[test]
    fn seed_null_round_trips() {
        let m = RunManifest {
            name: "t".into(),
            seed: None,
            args: vec![],
            wall_seconds: 0.0,
            mode: "off".into(),
            threads: 1,
            metrics: vec![],
        };
        let back = RunManifest::from_json(&m.to_json()).unwrap();
        assert_eq!(back.seed, None);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(RunManifest::from_json("{").is_err());
        assert!(RunManifest::from_json(r#"{"seed":1}"#).is_err());
    }
}
