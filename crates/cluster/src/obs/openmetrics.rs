//! OpenMetrics / Prometheus text-exposition export and validation.
//!
//! [`export_openmetrics`] renders a [`MetricsRegistry`] and
//! [`export_timeseries_openmetrics`] renders a [`TimeSeriesRecorder`] in the
//! OpenMetrics text format: `# TYPE` metadata per family, counter samples
//! with the `_total` suffix, summaries as `{quantile="…"}` samples plus
//! `_count`/`_sum`, label sets rendered `{key="value",…}` with the standard
//! escapes, and the mandatory `# EOF` terminator. Metric names translate
//! from the registry's dotted taxonomy by replacing `.` with `_`
//! (`serving.latency_cycles` → `serving_latency_cycles`), staying inside
//! OpenMetrics' `[a-zA-Z_:][a-zA-Z0-9_:]*` name alphabet. Time-series
//! samples carry their window index as the explicit OpenMetrics timestamp,
//! so one exposition transports the whole retained history of every series.
//!
//! Both exporters iterate name-ordered state and number cycles, never the
//! wall clock — the same run exports **byte-identical** text however
//! many times it is rendered, which the golden tests lock.
//!
//! [`validate_openmetrics`] is the strict dependency-free parser mirroring
//! [`validate_chrome_trace`](crate::obs::validate_chrome_trace): it checks
//! name/label/escape syntax, `# TYPE`-before-samples ordering, per-type
//! suffix discipline (`_total` for counters, quantile/`_count`/`_sum` for
//! summaries), family contiguity, duplicate metadata and the trailing
//! `# EOF`, returning family/sample counts for harness assertions.

use std::collections::BTreeMap;
use std::fmt::{Display, Write as _};

use neu10::QuantileSketch;

use crate::obs::mapping::SeriesLabels;
use crate::obs::registry::{Metric, MetricsRegistry};
use crate::obs::timeseries::TimeSeriesRecorder;

/// The three quantiles a summary family exposes, matching the registry's
/// [`LatencySummary`](neu10::LatencySummary) percentiles.
const QUANTILES: &[(&str, f64)] = &[("0.5", 50.0), ("0.95", 95.0), ("0.99", 99.0)];

/// Renders `registry` as one OpenMetrics text exposition.
///
/// Counters export as `<name>_total`, gauges as plain samples, histograms as
/// summaries (three quantile samples plus `_count` and `_sum`). Deterministic
/// and byte-identical across re-exports of the same registry.
pub fn export_openmetrics(registry: &MetricsRegistry) -> String {
    let mut out = Exposition::default();
    for (name, value) in registry.counters() {
        out.counter(name, Point::default(), value);
    }
    for (name, value) in registry.gauges() {
        out.gauge(name, Point::default(), value);
    }
    for (name, sketch) in registry.histograms_iter() {
        out.summary(name, Point::default(), sketch);
    }
    out.finish()
}

/// Renders `recorder`'s retained windows as one OpenMetrics text exposition.
///
/// Every sample carries its window index as the OpenMetrics timestamp, so
/// the exposition is the full retained history: one `_total` sample per
/// (counter series, window), one sample per (gauge series, window), and
/// per-window quantile/`_count`/`_sum` samples per summary series. The
/// recorder's own bookkeeping is appended as the `timeseries.*`
/// meta-metrics. Deterministic and byte-identical across re-exports.
pub fn export_timeseries_openmetrics(recorder: &TimeSeriesRecorder) -> String {
    let mut out = Exposition::default();
    for (metric, labels) in recorder.counter_series() {
        for (window, value) in recorder.counter_windows(metric, labels) {
            out.counter(metric.name(), Point::window(labels, window), value);
        }
    }
    for (metric, labels) in recorder.gauge_series() {
        for (window, value) in recorder.gauge_windows(metric, labels) {
            out.gauge(metric.name(), Point::window(labels, window), value);
        }
    }
    for (metric, labels) in recorder.summary_series() {
        for (window, sketch) in recorder.summary_sketches(metric, labels) {
            out.summary(metric.name(), Point::window(labels, window), sketch);
        }
    }
    let fleet = Point::default();
    let stats = recorder.stats();
    out.counter(Metric::TimeseriesSamples.name(), fleet, stats.samples);
    let series = recorder.series_count() as f64;
    out.gauge(Metric::TimeseriesSeries.name(), fleet, series);
    let evicted = stats.windows_evicted;
    out.counter(Metric::TimeseriesWindowsEvicted.name(), fleet, evicted);
    out.finish()
}

/// Where a sample sits: its label block and, in a time series, the window
/// index written as its timestamp. A registry sample sits at the default
/// point: no labels, no timestamp.
#[derive(Debug, Clone, Copy, Default)]
struct Point {
    labels: SeriesLabels,
    /// The `quantile` label of a summary's quantile samples.
    quantile: Option<&'static str>,
    window: Option<u64>,
}

impl Point {
    fn window(labels: SeriesLabels, window: u64) -> Point {
        Point {
            labels,
            quantile: None,
            window: Some(window),
        }
    }
}

/// The one family/sample writer behind both exporters.
#[derive(Default)]
struct Exposition {
    out: String,
    /// The open family, as (taxonomy name, OpenMetrics type).
    family: Option<(&'static str, &'static str)>,
}

impl Exposition {
    /// Writes `name`'s `# TYPE` line unless its family is the open one.
    fn open(&mut self, name: &'static str, kind: &'static str) {
        if self.family != Some((name, kind)) {
            self.family = Some((name, kind));
            let _ = writeln!(self.out, "# TYPE {} {kind}", sanitize(name));
        }
    }

    /// One sample line: the family name and `suffix`, the point's label
    /// block, the value, and the point's window as the timestamp.
    fn sample(&mut self, name: &str, suffix: &str, point: Point, value: impl Display) {
        let labels = render_labels(&point.labels, point.quantile);
        let _ = write!(self.out, "{}{suffix}{labels} {value}", sanitize(name));
        if let Some(window) = point.window {
            let _ = write!(self.out, " {window}");
        }
        self.out.push('\n');
    }

    fn counter(&mut self, name: &'static str, point: Point, value: u64) {
        self.open(name, "counter");
        self.sample(name, "_total", point, value);
    }

    fn gauge(&mut self, name: &'static str, point: Point, value: f64) {
        self.open(name, "gauge");
        self.sample(name, "", point, number(value));
    }

    /// Three quantile samples, then `_count` and `_sum`.
    fn summary(&mut self, name: &'static str, point: Point, sketch: &QuantileSketch) {
        self.open(name, "summary");
        for &(label, percentile) in QUANTILES {
            let quantile = Point {
                quantile: Some(label),
                ..point
            };
            self.sample(name, "", quantile, sketch.percentile(percentile));
        }
        self.sample(name, "_count", point, sketch.count());
        self.sample(name, "_sum", point, sketch.sum());
    }

    fn finish(mut self) -> String {
        self.out.push_str("# EOF\n");
        self.out
    }
}

/// Translates a dotted taxonomy name into the OpenMetrics name alphabet.
fn sanitize(name: &str) -> String {
    name.replace('.', "_")
}

/// A finite exposition number (`NaN`/`±inf` degrade to 0, which the format
/// technically allows but no sane scraper wants).
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// Renders a [`SeriesLabels`] set (plus an optional `quantile`) as an
/// OpenMetrics label block, empty string when there are no labels.
fn render_labels(labels: &SeriesLabels, quantile: Option<&str>) -> String {
    let mut parts: Vec<String> = Vec::new();
    if let Some(model) = labels.model {
        parts.push(format!("model=\"{}\"", escape_label(model.name())));
    }
    if let Some(node) = labels.node {
        parts.push(format!("node=\"{}\"", node.0));
    }
    if let Some(priority) = labels.priority {
        parts.push(format!("priority=\"{}\"", escape_label(priority.label())));
    }
    if let Some(quantile) = quantile {
        parts.push(format!("quantile=\"{quantile}\""));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

/// The OpenMetrics label-value escapes: backslash, double quote, newline.
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// What [`validate_openmetrics`] counted while parsing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpenMetricsSummary {
    /// Metric families declared by `# TYPE` lines.
    pub families: usize,
    /// Sample lines parsed.
    pub samples: usize,
    /// Families per declared type (`counter`, `gauge`, `summary`, …).
    pub families_by_type: BTreeMap<String, usize>,
}

impl OpenMetricsSummary {
    /// Families declared with the given type.
    pub fn families_of(&self, kind: &str) -> usize {
        self.families_by_type.get(kind).copied().unwrap_or(0)
    }
}

/// Strictly parses an OpenMetrics text exposition, mirroring
/// [`validate_chrome_trace`](crate::obs::validate_chrome_trace) for the
/// Perfetto export: no dependencies, hard errors with line numbers.
///
/// Enforced: every non-comment line parses as `name[{labels}] value
/// [timestamp]`; names stay in `[a-zA-Z_:][a-zA-Z0-9_:]*`; label blocks are
/// `key="value"` lists with valid escapes; `# TYPE` precedes its family's
/// samples, is not duplicated, and carries a known type; samples belong to
/// the family most recently declared (family contiguity) with the type's
/// suffix discipline — counters only `<family>_total`, gauges only
/// `<family>`, summaries `<family>{quantile=…}` / `_count` / `_sum`; the
/// final line is `# EOF` and nothing follows it.
pub fn validate_openmetrics(text: &str) -> Result<OpenMetricsSummary, String> {
    let mut summary = OpenMetricsSummary::default();
    let mut declared: BTreeMap<String, String> = BTreeMap::new();
    let mut current: Option<(String, String)> = None;
    let mut saw_eof = false;
    for (index, line) in text.lines().enumerate() {
        let lineno = index + 1;
        if saw_eof {
            return Err(format!("line {lineno}: content after # EOF"));
        }
        if line.is_empty() {
            return Err(format!("line {lineno}: empty line"));
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.strip_prefix(' ').ok_or_else(|| {
                format!("line {lineno}: comment must be `# <keyword> …`, got {line:?}")
            })?;
            if comment == "EOF" {
                saw_eof = true;
                continue;
            }
            let mut words = comment.splitn(3, ' ');
            let keyword = words.next().unwrap_or("");
            match keyword {
                "TYPE" => {
                    let family = words
                        .next()
                        .ok_or_else(|| format!("line {lineno}: TYPE without a family name"))?;
                    check_name(family, lineno)?;
                    let kind = words
                        .next()
                        .ok_or_else(|| format!("line {lineno}: TYPE without a type"))?;
                    if !matches!(
                        kind,
                        "counter" | "gauge" | "summary" | "histogram" | "unknown"
                    ) {
                        return Err(format!("line {lineno}: unknown metric type {kind:?}"));
                    }
                    if declared
                        .insert(family.to_string(), kind.to_string())
                        .is_some()
                    {
                        return Err(format!("line {lineno}: duplicate TYPE for {family:?}"));
                    }
                    summary.families += 1;
                    *summary
                        .families_by_type
                        .entry(kind.to_string())
                        .or_insert(0) += 1;
                    current = Some((family.to_string(), kind.to_string()));
                }
                "HELP" | "UNIT" => {
                    let family = words
                        .next()
                        .ok_or_else(|| format!("line {lineno}: {keyword} without a family"))?;
                    check_name(family, lineno)?;
                }
                other => {
                    return Err(format!("line {lineno}: unknown comment keyword {other:?}"));
                }
            }
            continue;
        }
        let sample = parse_sample(line, lineno)?;
        let (family, kind) = current
            .as_ref()
            .ok_or_else(|| format!("line {lineno}: sample before any # TYPE"))?;
        check_suffix(&sample, family, kind, lineno)?;
        summary.samples += 1;
    }
    if !saw_eof {
        return Err("missing # EOF terminator".to_string());
    }
    Ok(summary)
}

/// One parsed sample line.
struct Sample {
    name: String,
    labels: Vec<(String, String)>,
}

/// Validates the OpenMetrics name alphabet `[a-zA-Z_:][a-zA-Z0-9_:]*`.
fn check_name(name: &str, lineno: usize) -> Result<(), String> {
    let mut chars = name.chars();
    let ok_first = chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':');
    if !ok_first || !chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':') {
        return Err(format!("line {lineno}: invalid metric name {name:?}"));
    }
    Ok(())
}

/// Parses `name[{labels}] value [timestamp]`.
fn parse_sample(line: &str, lineno: usize) -> Result<Sample, String> {
    let name_end = line
        .find(['{', ' '])
        .ok_or_else(|| format!("line {lineno}: sample without a value: {line:?}"))?;
    let name = &line[..name_end];
    check_name(name, lineno)?;
    let mut rest = &line[name_end..];
    let mut labels = Vec::new();
    if let Some(block) = rest.strip_prefix('{') {
        let close = find_label_block_end(block)
            .ok_or_else(|| format!("line {lineno}: unterminated label block"))?;
        parse_labels(&block[..close], &mut labels, lineno)?;
        rest = &block[close + 1..];
    }
    let rest = rest
        .strip_prefix(' ')
        .ok_or_else(|| format!("line {lineno}: expected ` value` after name/labels"))?;
    let mut fields = rest.split(' ');
    let value = fields
        .next()
        .ok_or_else(|| format!("line {lineno}: missing sample value"))?;
    if value.parse::<f64>().is_err() {
        return Err(format!("line {lineno}: unparseable value {value:?}"));
    }
    if let Some(timestamp) = fields.next() {
        if timestamp.parse::<f64>().is_err() {
            return Err(format!(
                "line {lineno}: unparseable timestamp {timestamp:?}"
            ));
        }
    }
    if fields.next().is_some() {
        return Err(format!("line {lineno}: trailing tokens after timestamp"));
    }
    Ok(Sample {
        name: name.to_string(),
        labels,
    })
}

/// The index of the unquoted `}` closing a label block (the block's opening
/// `{` already stripped), honoring escapes inside quoted values.
fn find_label_block_end(block: &str) -> Option<usize> {
    let mut in_quotes = false;
    let mut escaped = false;
    for (index, c) in block.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_quotes => escaped = true,
            '"' => in_quotes = !in_quotes,
            '}' if !in_quotes => return Some(index),
            _ => {}
        }
    }
    None
}

/// Parses a `key="value",key="value"` list.
fn parse_labels(
    block: &str,
    labels: &mut Vec<(String, String)>,
    lineno: usize,
) -> Result<(), String> {
    let mut rest = block;
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("line {lineno}: label without `=`"))?;
        let key = &rest[..eq];
        check_name(key, lineno)?;
        let after = rest[eq + 1..]
            .strip_prefix('"')
            .ok_or_else(|| format!("line {lineno}: label value must be quoted"))?;
        let mut value = String::new();
        let mut escaped = false;
        let mut consumed = None;
        for (index, c) in after.char_indices() {
            if escaped {
                match c {
                    '\\' => value.push('\\'),
                    '"' => value.push('"'),
                    'n' => value.push('\n'),
                    other => {
                        return Err(format!("line {lineno}: invalid escape `\\{other}`"));
                    }
                }
                escaped = false;
                continue;
            }
            match c {
                '\\' => escaped = true,
                '"' => {
                    consumed = Some(index);
                    break;
                }
                other => value.push(other),
            }
        }
        let end = consumed.ok_or_else(|| format!("line {lineno}: unterminated label value"))?;
        labels.push((key.to_string(), value));
        rest = &after[end + 1..];
        if let Some(more) = rest.strip_prefix(',') {
            rest = more;
            if more.is_empty() {
                return Err(format!("line {lineno}: trailing comma in label block"));
            }
        } else if !rest.is_empty() {
            return Err(format!("line {lineno}: expected `,` between labels"));
        }
    }
    Ok(())
}

/// Per-type suffix discipline: which sample names a family of `kind` owns.
fn check_suffix(sample: &Sample, family: &str, kind: &str, lineno: usize) -> Result<(), String> {
    let name = sample.name.as_str();
    let suffix = name.strip_prefix(family).ok_or_else(|| {
        format!(
            "line {lineno}: sample {name:?} outside the current family {family:?} \
             (families must be contiguous)"
        )
    })?;
    let has_quantile = sample.labels.iter().any(|(k, _)| k == "quantile");
    let ok = match kind {
        "counter" => suffix == "_total" || suffix == "_created",
        "gauge" => suffix.is_empty(),
        "summary" => (suffix.is_empty() && has_quantile) || suffix == "_count" || suffix == "_sum",
        "histogram" => suffix == "_bucket" || suffix == "_count" || suffix == "_sum",
        _ => true, // unknown: anything in the family goes
    };
    if !ok {
        return Err(format!(
            "line {lineno}: sample {name:?} has an invalid suffix for {kind} family {family:?}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::mapping::MetricStore;
    use crate::obs::timeseries::TimeSeriesConfig;
    use crate::obs::ObsSink;
    use workloads::ModelId;

    #[test]
    fn registry_export_is_valid_and_byte_stable() {
        let mut registry = MetricsRegistry::new();
        registry.add(Metric::ServingCompleted, 1);
        registry.add(Metric::ServingCompleted, 2);
        registry.set_gauge(Metric::FleetQueued, 5.0);
        registry.observe(Metric::ServingLatencyCycles, 100);
        registry.observe(Metric::ServingLatencyCycles, 300);
        let text = export_openmetrics(&registry);
        assert_eq!(
            text,
            export_openmetrics(&registry),
            "byte-identical re-export"
        );
        let summary = validate_openmetrics(&text).expect("export must validate");
        assert_eq!(summary.families, 3);
        assert_eq!(summary.families_of("counter"), 1);
        assert_eq!(summary.families_of("gauge"), 1);
        assert_eq!(summary.families_of("summary"), 1);
        assert_eq!(
            text,
            "# TYPE serving_completed counter\n\
             serving_completed_total 3\n\
             # TYPE fleet_queued gauge\n\
             fleet_queued 5\n\
             # TYPE serving_latency_cycles summary\n\
             serving_latency_cycles{quantile=\"0.5\"} 100\n\
             serving_latency_cycles{quantile=\"0.95\"} 300\n\
             serving_latency_cycles{quantile=\"0.99\"} 300\n\
             serving_latency_cycles_count 2\n\
             serving_latency_cycles_sum 400\n\
             # EOF\n",
            "the exposition is pinned by value"
        );
    }

    #[test]
    fn timeseries_export_carries_windows_and_labels() {
        let mut ts = TimeSeriesRecorder::new(TimeSeriesConfig::new(1_000));
        ts.on_arrival(100, 0, ModelId::Mnist);
        ts.on_arrival(1_200, 1, ModelId::Mnist);
        ts.observe_at(
            100,
            Metric::ServingLatencyCycles,
            SeriesLabels::model(ModelId::Mnist),
            40,
        );
        let text = export_timeseries_openmetrics(&ts);
        assert_eq!(text, export_timeseries_openmetrics(&ts));
        let summary = validate_openmetrics(&text).expect("export must validate");
        assert!(text.contains("serving_arrivals_total{model=\"MNIST\"} 1 0\n"));
        assert!(text.contains("serving_arrivals_total{model=\"MNIST\"} 1 1\n"));
        assert!(text.contains("serving_latency_cycles{model=\"MNIST\",quantile=\"0.5\"} 40 0\n"));
        assert!(text.contains("timeseries_samples_total 3\n"));
        assert!(text.contains("timeseries_series 2\n"));
        assert!(summary.samples > 0);
    }

    #[test]
    fn validator_rejects_malformed_expositions() {
        for (text, why) in [
            ("serving_total 1\n# EOF\n", "sample before TYPE"),
            ("# TYPE a counter\na_total 1\n", "missing EOF"),
            (
                "# TYPE a counter\na_total 1\n# EOF\nx 1\n",
                "content after EOF",
            ),
            ("# TYPE a counter\na 1\n# EOF\n", "counter without _total"),
            ("# TYPE a gauge\na_total 1\n# EOF\n", "gauge with suffix"),
            ("# TYPE a summary\na 1\n# EOF\n", "summary without quantile"),
            (
                "# TYPE a counter\n# TYPE a counter\n# EOF\n",
                "duplicate TYPE",
            ),
            ("# TYPE a counter\nb_total 1\n# EOF\n", "family mismatch"),
            ("# TYPE a widget\n# EOF\n", "unknown type"),
            ("# TYPE 9bad counter\n# EOF\n", "invalid name"),
            (
                "# TYPE a gauge\na{x=\"y\" 1\n# EOF\n",
                "unterminated labels",
            ),
            ("# TYPE a gauge\na{x=\"y\"} nope\n# EOF\n", "bad value"),
            ("# TYPE a gauge\na{x=\"y\"} 1 t\n# EOF\n", "bad timestamp"),
            ("# TYPE a gauge\na{x=\"\\q\"} 1\n# EOF\n", "bad escape"),
        ] {
            assert!(
                validate_openmetrics(text).is_err(),
                "validator accepted {why}: {text:?}"
            );
        }
    }

    #[test]
    fn validator_accepts_escapes_and_timestamps() {
        let text = "# TYPE a gauge\na{x=\"a\\\\b\\\"c\\nd\",y=\"z\"} 1.5 12345\n# EOF\n";
        let summary = validate_openmetrics(text).expect("escaped labels are valid");
        assert_eq!(summary.samples, 1);
        assert_eq!(summary.families, 1);
    }

    #[test]
    fn empty_registry_exports_just_eof() {
        let text = export_openmetrics(&MetricsRegistry::new());
        assert_eq!(text, "# EOF\n");
        let summary = validate_openmetrics(&text).expect("empty exposition is valid");
        assert_eq!(summary.families, 0);
        assert_eq!(summary.samples, 0);
    }
}
