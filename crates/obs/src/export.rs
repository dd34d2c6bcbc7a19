//! Snapshot rendering: Prometheus text exposition format.

use crate::histogram::HistogramSnapshot;
use crate::registry::{SnapshotEntry, SnapshotValue};

/// A point-in-time copy of a whole [`MetricsRegistry`](crate::MetricsRegistry),
/// sorted by `(name, labels)`. The export is a deterministic function of the
/// snapshot, so the metric names and label sets form a stable contract
/// (pinned by the golden-export test).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// The exported metrics.
    pub entries: Vec<SnapshotEntry>,
}

impl MetricsSnapshot {
    /// The entry with this exact name and label set.
    #[must_use]
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&SnapshotEntry> {
        self.entries
            .iter()
            .find(|e| e.name == name && labels_eq(&e.labels, labels))
    }

    /// Value of the first counter named `name` (any label set).
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.entries
            .iter()
            .find(|e| e.name == name)
            .and_then(|e| match &e.value {
                SnapshotValue::Counter(v) => Some(*v),
                _ => None,
            })
    }

    /// Value of the first gauge named `name` (any label set).
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.entries
            .iter()
            .find(|e| e.name == name)
            .and_then(|e| match &e.value {
                SnapshotValue::Gauge(v) => Some(*v),
                _ => None,
            })
    }

    /// The histogram with this exact name and label set.
    #[must_use]
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramSnapshot> {
        self.get(name, labels).and_then(|e| match &e.value {
            SnapshotValue::Histogram(h) => Some(h),
            _ => None,
        })
    }

    /// Sum of the histogram with this exact name and label set.
    #[must_use]
    pub fn histogram_sum(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.histogram(name, labels).map(|h| h.sum)
    }

    /// The same snapshot with `extra` label pairs stamped onto every entry
    /// (label sets stay sorted by label name). This is the federation
    /// primitive for sharded serving: each shard keeps its own registry, and
    /// an aggregator relabels each shard's snapshot with `("shard", "<i>")`
    /// before merging, so identically-named per-shard metrics stay distinct
    /// series in one exposition.
    ///
    /// Entries that already carry one of the `extra` label names keep their
    /// own value (the stamp never overwrites an explicit label).
    #[must_use]
    pub fn with_labels(mut self, extra: &[(&str, &str)]) -> MetricsSnapshot {
        for e in &mut self.entries {
            for &(k, v) in extra {
                if e.labels.iter().any(|(name, _)| name == k) {
                    continue;
                }
                e.labels.push((k.to_string(), v.to_string()));
            }
            e.labels.sort();
        }
        self
    }

    /// One snapshot holding every entry of `parts`, in order. Combine with
    /// [`MetricsSnapshot::with_labels`] to build a single deterministic
    /// exposition over many registries (exports sort by `(name, labels)`,
    /// so the concatenation order does not leak into the output).
    #[must_use]
    pub fn merged(parts: impl IntoIterator<Item = MetricsSnapshot>) -> MetricsSnapshot {
        MetricsSnapshot {
            entries: parts.into_iter().flat_map(|s| s.entries).collect(),
        }
    }

    /// The entries re-sorted by `(name, labels)` at export time. Registry
    /// snapshots arrive sorted already, but `entries` is a public field a
    /// caller may have assembled by hand — sorting here makes every export
    /// deterministic regardless of construction order.
    fn sorted_entries(&self) -> Vec<&SnapshotEntry> {
        let mut entries: Vec<&SnapshotEntry> = self.entries.iter().collect();
        entries.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        entries
    }

    /// Prometheus text exposition format: one `# HELP`/`# TYPE` header per
    /// metric family, histograms expanded into cumulative `_bucket` series
    /// plus `_sum` and `_count`. Families and label sets are emitted in
    /// sorted `(name, labels)` order, so the output is byte-deterministic
    /// for a given snapshot.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_name: Option<&str> = None;
        for e in self.sorted_entries() {
            if last_name != Some(e.name.as_str()) {
                let kind = match &e.value {
                    SnapshotValue::Counter(_) => "counter",
                    SnapshotValue::Gauge(_) => "gauge",
                    SnapshotValue::Histogram(_) => "histogram",
                };
                out.push_str(&format!(
                    "# HELP {} {}\n# TYPE {} {kind}\n",
                    e.name,
                    escape_help(&e.help),
                    e.name
                ));
                last_name = Some(e.name.as_str());
            }
            match &e.value {
                SnapshotValue::Counter(v) => {
                    out.push_str(&format!("{}{} {v}\n", e.name, label_block(&e.labels, None)));
                }
                SnapshotValue::Gauge(v) => {
                    out.push_str(&format!("{}{} {v}\n", e.name, label_block(&e.labels, None)));
                }
                SnapshotValue::Histogram(h) => {
                    let cum = h.cumulative();
                    for (i, c) in cum.iter().enumerate() {
                        let le = match h.bounds.get(i) {
                            Some(b) => prom_f64(*b),
                            None => "+Inf".to_string(),
                        };
                        out.push_str(&format!(
                            "{}_bucket{} {c}\n",
                            e.name,
                            label_block(&e.labels, Some(&le))
                        ));
                    }
                    out.push_str(&format!(
                        "{}_sum{} {}\n",
                        e.name,
                        label_block(&e.labels, None),
                        prom_f64(h.sum)
                    ));
                    out.push_str(&format!(
                        "{}_count{} {}\n",
                        e.name,
                        label_block(&e.labels, None),
                        h.count
                    ));
                }
            }
        }
        out
    }
}

/// Renders a snapshot in Prometheus text exposition format. This is the
/// canonical serving-path entry point: the `/metrics` endpoint of
/// [`serve`](crate::serve) emits exactly this function's output, byte for
/// byte, for the snapshot it takes at scrape time.
#[must_use]
pub fn prometheus_text(snapshot: &MetricsSnapshot) -> String {
    snapshot.to_prometheus()
}

fn labels_eq(have: &[(String, String)], want: &[(&str, &str)]) -> bool {
    let mut want: Vec<(&str, &str)> = want.to_vec();
    want.sort_unstable();
    have.len() == want.len()
        && have
            .iter()
            .zip(&want)
            .all(|((hk, hv), (wk, wv))| hk == wk && hv == wv)
}

/// `{a="1",b="2"}` (optionally with a trailing `le`), or `""` when empty.
fn label_block(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", parts.join(","))
}

fn escape_help(help: &str) -> String {
    help.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Prometheus float text (`+Inf` / `-Inf` / `NaN` spellings).
fn prom_f64(v: f64) -> String {
    if v.is_finite() {
        v.to_string()
    } else if v.is_nan() {
        "NaN".to_string()
    } else if v > 0.0 {
        "+Inf".to_string()
    } else {
        "-Inf".to_string()
    }
}

#[cfg(test)]
mod tests {
    use crate::{MetricsRegistry, PairedCounter};

    fn demo() -> MetricsRegistry {
        let r = MetricsRegistry::new();
        r.counter("req_total", "Requests.").add(3);
        r.gauge("depth", "Depth.").set(-2);
        let h = r.histogram_with_labels("lat_seconds", "Latency.", &[0.1, 1.0], &[("phase", "a")]);
        h.observe(0.05);
        h.observe(0.5);
        h.observe(2.0);
        let p = r.register_paired("cache", "Cache.", PairedCounter::new());
        p.hit();
        p.miss();
        r
    }

    #[test]
    fn prometheus_shape() {
        let text = demo().snapshot().to_prometheus();
        assert!(text.contains("# TYPE req_total counter"));
        assert!(text.contains("req_total 3"));
        assert!(text.contains("depth -2"));
        assert!(text.contains("lat_seconds_bucket{phase=\"a\",le=\"0.1\"} 1"));
        assert!(text.contains("lat_seconds_bucket{phase=\"a\",le=\"1\"} 2"));
        assert!(text.contains("lat_seconds_bucket{phase=\"a\",le=\"+Inf\"} 3"));
        assert!(text.contains("lat_seconds_count{phase=\"a\"} 3"));
        assert!(text.contains("cache_hits_total 1"));
        assert!(text.contains("cache_misses_total 1"));
        // One header per family.
        assert_eq!(text.matches("# TYPE lat_seconds histogram").count(), 1);
    }

    #[test]
    fn exports_sort_hand_built_entries() {
        use crate::registry::{SnapshotEntry, SnapshotValue};
        use crate::MetricsSnapshot;
        let entry = |name: &str| SnapshotEntry {
            name: name.to_string(),
            help: String::new(),
            labels: Vec::new(),
            value: SnapshotValue::Counter(1),
        };
        let scrambled = MetricsSnapshot {
            entries: vec![entry("b_total"), entry("a_total")],
        };
        let sorted = MetricsSnapshot {
            entries: vec![entry("a_total"), entry("b_total")],
        };
        assert_eq!(scrambled.to_prometheus(), sorted.to_prometheus());
        assert_eq!(
            crate::export::prometheus_text(&scrambled),
            scrambled.to_prometheus()
        );
    }

    #[test]
    fn snapshot_accessors() {
        let s = demo().snapshot();
        assert_eq!(s.counter("req_total"), Some(3));
        assert_eq!(s.gauge("depth"), Some(-2));
        let h = s.histogram("lat_seconds", &[("phase", "a")]).unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(
            s.histogram_sum("lat_seconds", &[("phase", "a")]),
            Some(h.sum)
        );
        assert!(s.get("lat_seconds", &[]).is_none());
    }
}

#[cfg(test)]
mod federation_tests {
    use super::*;
    use crate::MetricsRegistry;

    #[test]
    fn with_labels_stamps_every_entry_and_keeps_sorted_order() {
        let r = MetricsRegistry::new();
        r.counter("queries_total", "Q.").add(4);
        r.histogram_with_labels("lat_seconds", "L.", &[1.0], &[("phase", "a")])
            .observe(0.5);
        let s = r.snapshot().with_labels(&[("shard", "3")]);
        assert!(s.get("queries_total", &[("shard", "3")]).is_some());
        // Existing labels are preserved and the combined set is sorted.
        let e = s
            .get("lat_seconds", &[("phase", "a"), ("shard", "3")])
            .expect("relabelled histogram");
        assert!(e.labels.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn with_labels_never_overwrites_an_explicit_label() {
        let r = MetricsRegistry::new();
        r.counter_with_labels("queries_total", "Q.", &[("shard", "9")])
            .inc();
        let s = r.snapshot().with_labels(&[("shard", "0")]);
        assert!(s.get("queries_total", &[("shard", "9")]).is_some());
        assert!(s.get("queries_total", &[("shard", "0")]).is_none());
    }

    #[test]
    fn merged_federates_shard_registries_into_distinct_series() {
        let snaps: Vec<MetricsSnapshot> = (0..3)
            .map(|i| {
                let r = MetricsRegistry::new();
                r.counter("queries_total", "Q.").add(i + 1);
                r.snapshot().with_labels(&[("shard", &i.to_string())])
            })
            .collect();
        let all = MetricsSnapshot::merged(snaps);
        assert_eq!(all.entries.len(), 3);
        for i in 0..3u64 {
            let got = all
                .get("queries_total", &[("shard", &i.to_string())])
                .expect("per-shard series");
            assert_eq!(got.value, SnapshotValue::Counter(i + 1));
        }
        // The exposition is deterministic and shows each series once.
        let text = all.to_prometheus();
        assert_eq!(text.matches("queries_total{shard=").count(), 3);
        assert_eq!(text.matches("# HELP queries_total").count(), 1);
    }
}
