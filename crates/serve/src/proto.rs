//! The server's wire formats: campaign submissions in, status
//! documents and SSE event payloads out — all built on the workspace's
//! dependency-free [`fmossim_campaign::json`] reader/writer.
//!
//! # Submission schema (`POST /campaigns`)
//!
//! A JSON object naming the workload either by zoo registry name:
//!
//! ```json
//! {"circuit": "ram4x4", "universe": "stuck-nodes", "shards": 4}
//! ```
//!
//! or inline, as `.snl` netlist text plus an explicit stimulus:
//!
//! ```json
//! {
//!   "netlist": "input A 0\nnode OUT\n...",
//!   "outputs": ["OUT"],
//!   "patterns": [
//!     {"label": "w1", "phases": [
//!       {"inputs": [["A", "1"]], "strobe": true}
//!     ]}
//!   ]
//! }
//! ```
//!
//! `universe` (default `"stuck-nodes"`) takes the CLI spellings of
//! [`fmossim_campaign::universe_from_spec`]; `shards` (bounded by
//! [`MAX_SHARDS`]) overrides the server's default shard count; `name`
//! labels the job in listings; `stop_at_coverage` (number in
//! `[0, 1]`, default absent) stops the run once coverage reaches the
//! target
//! ([`Campaign::stop_at_coverage`](fmossim_campaign::Campaign::stop_at_coverage)),
//! evaluated over the full fault universe.
//!
//! Every job runs with static fault collapsing, the
//! [`Campaign`](fmossim_campaign::Campaign) default
//! ([`Campaign::collapse`](fmossim_campaign::Campaign::collapse)): the
//! report speaks full-universe terms and carries the class statistics
//! in its `collapse` block. There is no switch for it; the parser
//! ignores a legacy `"collapse"` key like any other unknown key.
//! Phase inputs are `[node name, logic char]` pairs in application
//! order, with logic spelled `"0"`, `"1"`, or `"X"`
//! ([`fmossim_netlist::Logic`]).

use crate::cache::TapeKey;
use fmossim_campaign::json::{obj, parse, Value};
use fmossim_campaign::{universe_from_spec, SimEvent};
use fmossim_core::{stimulus_content_hash, Pattern, Phase};
use fmossim_faults::FaultUniverse;
use fmossim_netlist::{parse_netlist, Logic, Network, NodeId};
use fmossim_testgen::zoo::build_zoo;

/// Default shard count when a submission does not set `shards`.
/// Modest oversharding keeps the shared pool load-balanced without
/// paying per-shard setup for tiny jobs.
pub const DEFAULT_SHARDS: usize = 4;

/// Upper bound on a submission's `shards` — per-shard setup cost makes
/// anything beyond this a denial-of-service lever, not a speedup.
pub const MAX_SHARDS: usize = 64;

/// A fully-resolved campaign job: everything the server needs to run
/// it, owned (`'static`) so it can cross threads.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Display name (the zoo circuit name, or the submission's
    /// `name`, or `"custom"`).
    pub name: String,
    /// The circuit under test.
    pub net: Network,
    /// The fault universe to grade.
    pub universe: FaultUniverse,
    /// The stimulus.
    pub patterns: Vec<Pattern>,
    /// Observed output nodes.
    pub outputs: Vec<NodeId>,
    /// Shard count for the pool plan.
    pub shards: usize,
    /// Stop once coverage over the full fault universe reaches this
    /// fraction
    /// ([`Campaign::stop_at_coverage`](fmossim_campaign::Campaign::stop_at_coverage)).
    pub stop_at_coverage: Option<f64>,
}

impl JobSpec {
    /// The job's good-tape cache key (see
    /// [`TapeCache`](crate::TapeCache)).
    #[must_use]
    pub fn cache_key(&self) -> TapeKey {
        (
            self.net.content_hash(),
            stimulus_content_hash(&self.patterns),
        )
    }
}

/// Parses a `POST /campaigns` body into a runnable [`JobSpec`].
///
/// ```
/// use fmossim_serve::proto::parse_submission;
///
/// let spec = parse_submission(r#"{"circuit": "ram4x4", "shards": 2}"#, 4).unwrap();
/// assert_eq!(spec.name, "ram4x4");
/// assert_eq!(spec.shards, 2);
/// assert!(spec.universe.len() > 0);
/// assert!(parse_submission("{}", 4).is_err(), "no workload named");
/// ```
///
/// # Errors
///
/// Returns a message on malformed JSON, unknown zoo circuits, netlist
/// parse errors, unresolvable node names, or bad field types.
pub fn parse_submission(body: &str, default_shards: usize) -> Result<JobSpec, String> {
    let v = parse(body).map_err(|e| format!("malformed JSON: {e}"))?;
    if !matches!(v, Value::Obj(_)) {
        return Err("submission must be a JSON object".into());
    }

    let (name, net, outputs, patterns) = match (v.get("circuit"), v.get("netlist")) {
        (Some(circuit), None) => {
            let circuit = circuit
                .as_str()
                .ok_or_else(|| "\"circuit\" must be a string".to_string())?;
            let zoo = build_zoo(circuit)?;
            (zoo.name.to_string(), zoo.net, zoo.outputs, zoo.patterns)
        }
        (None, Some(netlist)) => {
            let text = netlist
                .as_str()
                .ok_or_else(|| "\"netlist\" must be a string of .snl text".to_string())?;
            let net = parse_netlist(text).map_err(|e| format!("bad netlist: {e}"))?;
            let outputs = v
                .get("outputs")
                .and_then(Value::as_arr)
                .ok_or_else(|| "inline netlists need an \"outputs\" array".to_string())?
                .iter()
                .map(|o| {
                    let name = o
                        .as_str()
                        .ok_or_else(|| "output names must be strings".to_string())?;
                    net.find_node(name)
                        .ok_or_else(|| format!("unknown output node {name:?}"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            let patterns = patterns_from_json(
                &net,
                v.get("patterns")
                    .ok_or_else(|| "inline netlists need a \"patterns\" array".to_string())?,
            )?;
            let name = match v.get("name") {
                None | Some(Value::Null) => "custom".to_string(),
                Some(n) => n
                    .as_str()
                    .ok_or_else(|| "\"name\" must be a string".to_string())?
                    .to_string(),
            };
            (name, net, outputs, patterns)
        }
        (Some(_), Some(_)) => return Err("give either \"circuit\" or \"netlist\", not both".into()),
        (None, None) => {
            return Err("submission names no workload: give \"circuit\" or \"netlist\"".into())
        }
    };

    let universe_spec = match v.get("universe") {
        None | Some(Value::Null) => "stuck-nodes",
        Some(u) => u
            .as_str()
            .ok_or_else(|| "\"universe\" must be a string".to_string())?,
    };
    let universe = universe_from_spec(&net, universe_spec)?;

    let shards = match v.get("shards") {
        None | Some(Value::Null) => default_shards,
        Some(s) => s
            .as_usize()
            .filter(|&s| (1..=MAX_SHARDS).contains(&s))
            .ok_or_else(|| format!("\"shards\" must be an integer in 1..={MAX_SHARDS}"))?,
    };

    let stop_at_coverage = match v.get("stop_at_coverage") {
        None | Some(Value::Null) => None,
        Some(c) => Some(
            c.as_f64()
                .filter(|t| (0.0..=1.0).contains(t))
                .ok_or_else(|| "\"stop_at_coverage\" must be a number in [0, 1]".to_string())?,
        ),
    };

    Ok(JobSpec {
        name,
        net,
        universe,
        patterns,
        outputs,
        shards,
        stop_at_coverage,
    })
}

/// Decodes the wire form of a pattern list (see the module docs)
/// against `net`'s node names.
///
/// # Errors
///
/// Returns a message on shape errors, unknown node names, or logic
/// values outside `0`/`1`/`X`.
pub fn patterns_from_json(net: &Network, v: &Value) -> Result<Vec<Pattern>, String> {
    let arr = v
        .as_arr()
        .ok_or_else(|| "\"patterns\" must be an array".to_string())?;
    arr.iter()
        .enumerate()
        .map(|(pi, p)| {
            let label = match p.get("label") {
                None | Some(Value::Null) => String::new(),
                Some(l) => l
                    .as_str()
                    .ok_or_else(|| format!("pattern {pi}: label must be a string"))?
                    .to_string(),
            };
            let phases = p
                .get("phases")
                .and_then(Value::as_arr)
                .ok_or_else(|| format!("pattern {pi}: needs a \"phases\" array"))?
                .iter()
                .map(|ph| phase_from_json(net, ph, pi))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Pattern { phases, label })
        })
        .collect()
}

fn phase_from_json(net: &Network, ph: &Value, pi: usize) -> Result<Phase, String> {
    let inputs = ph
        .get("inputs")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("pattern {pi}: each phase needs an \"inputs\" array"))?
        .iter()
        .map(|pair| {
            let Some([name, logic]) = pair.as_arr() else {
                return Err(format!("pattern {pi}: inputs are [name, logic] pairs"));
            };
            let name = name
                .as_str()
                .ok_or_else(|| format!("pattern {pi}: input node names must be strings"))?;
            let id = net
                .find_node(name)
                .ok_or_else(|| format!("pattern {pi}: unknown input node {name:?}"))?;
            let logic = logic
                .as_str()
                .and_then(|s| {
                    let mut chars = s.chars();
                    match (chars.next(), chars.next()) {
                        (Some(c), None) => Logic::from_char(c),
                        _ => None,
                    }
                })
                .ok_or_else(|| format!("pattern {pi}: logic values are \"0\", \"1\", or \"X\""))?;
            Ok((id, logic))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let strobe = match ph.get("strobe") {
        None | Some(Value::Null) => false,
        Some(s) => s
            .as_bool()
            .ok_or_else(|| format!("pattern {pi}: strobe must be a boolean"))?,
    };
    Ok(Phase { inputs, strobe })
}

/// Encodes patterns into the wire form [`patterns_from_json`] reads —
/// the client half of the inline-submission path.
#[must_use]
pub fn patterns_to_json(net: &Network, patterns: &[Pattern]) -> Value {
    Value::Arr(
        patterns
            .iter()
            .map(|p| {
                obj([
                    ("label", Value::Str(p.label.clone())),
                    (
                        "phases",
                        Value::Arr(
                            p.phases
                                .iter()
                                .map(|ph| {
                                    obj([
                                        (
                                            "inputs",
                                            Value::Arr(
                                                ph.inputs
                                                    .iter()
                                                    .map(|&(id, logic)| {
                                                        Value::Arr(vec![
                                                            Value::Str(net.node(id).name.clone()),
                                                            Value::Str(logic.to_char().to_string()),
                                                        ])
                                                    })
                                                    .collect(),
                                            ),
                                        ),
                                        ("strobe", Value::Bool(ph.strobe)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect(),
    )
}

/// Renders a [`SimEvent`] as its SSE `(event name, JSON data)` pair.
///
/// Event names are the snake-case variant names (`pattern_start`,
/// `pattern_done`, `detected`, `fault_dropped`, `shard_done`, `span`);
/// payload keys mirror the variant fields.
///
/// ```
/// use fmossim_campaign::SimEvent;
/// use fmossim_serve::proto::sse_event;
///
/// let (name, data) = sse_event(&SimEvent::Span { name: "campaign.run", seconds: 0.5 });
/// assert_eq!(name, "span");
/// assert_eq!(data, r#"{"name":"campaign.run","seconds":0.5}"#);
/// ```
#[must_use]
pub fn sse_event(e: &SimEvent) -> (&'static str, String) {
    let num = |n: usize| Value::Num(n as f64);
    let (name, data) = match *e {
        SimEvent::PatternStart { pattern, live } => (
            "pattern_start",
            obj([("live", num(live)), ("pattern", num(pattern))]),
        ),
        SimEvent::PatternDone {
            pattern,
            detected_so_far,
            seconds,
        } => (
            "pattern_done",
            obj([
                ("detected_so_far", num(detected_so_far)),
                ("pattern", num(pattern)),
                ("seconds", Value::Num(seconds)),
            ]),
        ),
        SimEvent::Detected {
            fault,
            pattern,
            phase,
            potential,
        } => (
            "detected",
            obj([
                ("fault", num(fault.index())),
                ("pattern", num(pattern)),
                ("phase", num(phase)),
                ("potential", Value::Bool(potential)),
            ]),
        ),
        SimEvent::FaultDropped { fault } => ("fault_dropped", obj([("fault", num(fault.index()))])),
        SimEvent::ShardDone {
            shard,
            faults,
            detected,
            seconds,
        } => (
            "shard_done",
            obj([
                ("detected", num(detected)),
                ("faults", num(faults)),
                ("seconds", Value::Num(seconds)),
                ("shard", num(shard)),
            ]),
        ),
        SimEvent::Span { name, seconds } => (
            "span",
            obj([
                ("name", Value::Str(name.to_string())),
                ("seconds", Value::Num(seconds)),
            ]),
        ),
    };
    (name, data.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmossim_faults::FaultId;

    #[test]
    fn zoo_submissions_resolve() {
        let spec = parse_submission(r#"{"circuit": "ram4x4"}"#, DEFAULT_SHARDS).unwrap();
        assert_eq!(spec.name, "ram4x4");
        assert_eq!(spec.shards, DEFAULT_SHARDS);
        assert_eq!(spec.stop_at_coverage, None, "coverage stop is opt-in");
        let targeted = parse_submission(
            r#"{"circuit": "ram4x4", "stop_at_coverage": 0.9}"#,
            DEFAULT_SHARDS,
        )
        .unwrap();
        assert_eq!(targeted.stop_at_coverage, Some(0.9));
        // Collapsing always runs; a legacy `"collapse"` key of any type
        // is ignored like any other unknown key.
        for legacy in ["false", "true", "3"] {
            let body = format!(r#"{{"circuit": "ram4x4", "collapse": {legacy}}}"#);
            let ignored = parse_submission(&body, DEFAULT_SHARDS).expect(&body);
            assert_eq!(ignored.name, spec.name);
            assert_eq!(ignored.universe.len(), spec.universe.len());
        }
        assert!(!spec.patterns.is_empty());
        assert!(!spec.outputs.is_empty());
        let (net_hash, stim_hash) = spec.cache_key();
        assert_eq!(net_hash, spec.net.content_hash());
        assert_ne!(stim_hash, 0);
    }

    #[test]
    fn inline_submissions_round_trip_through_the_wire_form() {
        let zoo = build_zoo("ram4x4").unwrap();
        let netlist = fmossim_netlist::write_netlist(&zoo.net);
        let body = obj([
            ("name", Value::Str("mine".into())),
            ("netlist", Value::Str(netlist)),
            (
                "outputs",
                Value::Arr(
                    zoo.outputs
                        .iter()
                        .map(|&o| Value::Str(zoo.net.node(o).name.clone()))
                        .collect(),
                ),
            ),
            ("patterns", patterns_to_json(&zoo.net, &zoo.patterns)),
            ("universe", Value::Str("stuck-transistors".into())),
            ("shards", Value::Num(3.0)),
        ])
        .to_string();
        let spec = parse_submission(&body, DEFAULT_SHARDS).unwrap();
        assert_eq!(spec.name, "mine");
        assert_eq!(spec.shards, 3);
        assert_eq!(spec.patterns, zoo.patterns, "stimulus survives the wire");
        assert_eq!(spec.outputs, zoo.outputs);
        // Same circuit + stimulus ⇒ same cache key as the zoo build.
        assert_eq!(spec.net.content_hash(), zoo.net.content_hash());
        assert_eq!(
            stimulus_content_hash(&spec.patterns),
            stimulus_content_hash(&zoo.patterns)
        );
    }

    #[test]
    fn rejects_bad_submissions_with_messages() {
        let cases = [
            ("not json", "malformed JSON"),
            ("[]", "must be a JSON object"),
            ("{}", "names no workload"),
            (r#"{"circuit": "nope"}"#, "unknown zoo circuit"),
            (r#"{"circuit": "ram4x4", "netlist": "x"}"#, "not both"),
            (
                r#"{"circuit": "ram4x4", "universe": "everything"}"#,
                "unknown universe",
            ),
            (r#"{"circuit": "ram4x4", "shards": 0}"#, "shards"),
            (r#"{"circuit": "ram4x4", "shards": 1e9}"#, "shards"),
            (
                r#"{"circuit": "ram4x4", "stop_at_coverage": 1.5}"#,
                "stop_at_coverage",
            ),
            (
                r#"{"circuit": "ram4x4", "stop_at_coverage": "most"}"#,
                "must be a number",
            ),
            (r#"{"netlist": "input A 0"}"#, "outputs"),
        ];
        for (body, needle) in cases {
            let err = parse_submission(body, DEFAULT_SHARDS).expect_err(body);
            assert!(err.contains(needle), "{body}: {err}");
        }
    }

    #[test]
    fn pattern_decode_rejects_unknown_nodes_and_bad_logic() {
        let zoo = build_zoo("ram4x4").unwrap();
        let bad_node = parse(r#"[{"phases": [{"inputs": [["GHOST", "1"]]}]}]"#).unwrap();
        assert!(patterns_from_json(&zoo.net, &bad_node)
            .unwrap_err()
            .contains("GHOST"));
        let name = zoo.net.node(zoo.outputs[0]).name.clone();
        let bad_logic = parse(&format!(
            r#"[{{"phases": [{{"inputs": [["{name}", "2"]]}}]}}]"#
        ))
        .unwrap();
        assert!(patterns_from_json(&zoo.net, &bad_logic)
            .unwrap_err()
            .contains("logic"));
    }

    #[test]
    fn sse_payloads_are_stable_json() {
        let (name, data) = sse_event(&SimEvent::Detected {
            fault: FaultId(7),
            pattern: 2,
            phase: 5,
            potential: true,
        });
        assert_eq!(name, "detected");
        assert_eq!(
            data,
            r#"{"fault":7,"pattern":2,"phase":5,"potential":true}"#
        );
        let (name, data) = sse_event(&SimEvent::ShardDone {
            shard: 1,
            faults: 16,
            detected: 9,
            seconds: 0.25,
        });
        assert_eq!(name, "shard_done");
        assert_eq!(
            data,
            r#"{"detected":9,"faults":16,"seconds":0.25,"shard":1}"#
        );
    }
}
