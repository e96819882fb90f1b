//! Dependency-free JSON document model: a writer for machine-readable
//! experiment output and a parser for consuming it back (used by the
//! golden determinism tests and any downstream tooling).
//!
//! The writer is deterministic: object members keep insertion order and
//! floats use Rust's shortest-roundtrip formatting, so the same
//! [`crate::api::SweepResult`] always encodes to the same bytes.
//! Non-finite floats encode as `null` (JSON has no NaN/inf).

use std::fmt;

use crate::api::CellId;

/// The sweep schema [`crate::api::SweepResult::to_json`] writes and
/// [`parse_sweep`] reads: the device-family, timing, mechanism and
/// variant axes as spec strings, plus per-cell fault isolation (a
/// failed cell carries an `error` object instead of metrics). Archived
/// v1–v4 documents are upgraded by hand; see `docs/SCHEMA.md`.
pub const SCHEMA_V5: &str = "chargecache-sweep/v5";

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as `f64`; written without a trailing `.0`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Members keep insertion order (deterministic output).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A number, mapping non-finite values to `null`.
    pub fn num(x: f64) -> Json {
        if x.is_finite() {
            Json::Num(x)
        } else {
            Json::Null
        }
    }

    /// An unsigned integer (exact for values below 2^53).
    pub fn uint(x: u64) -> Json {
        Json::Num(x as f64)
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An object member lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(xs) => Some(xs),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(x) if !x.is_finite() => f.write_str("null"),
            Json::Num(x) => write!(f, "{x}"),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(xs) => {
                f.write_str("[")?;
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{x}")?;
                }
                f.write_str("]")
            }
            Json::Obj(members) => {
                f.write_str("{")?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_fmt(format_args!("{c}"))?,
        }
    }
    f.write_str("\"")
}

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a message with the byte offset of the first syntax error.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected byte {}", self.pos)),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut xs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(xs));
        }
        loop {
            self.skip_ws();
            xs.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(xs));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let k = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let v = self.value()?;
            members.push((k, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let code = self.hex_escape()?;
                            let c = match code {
                                // High surrogate: must pair with a
                                // following `\uDC00..=\uDFFF` low half.
                                0xD800..=0xDBFF => {
                                    if self.bytes.get(self.pos + 1..self.pos + 3) != Some(b"\\u") {
                                        return Err("unpaired high surrogate".into());
                                    }
                                    self.pos += 2;
                                    let low = self.hex_escape()?;
                                    if !(0xDC00..=0xDFFF).contains(&low) {
                                        return Err("invalid low surrogate".into());
                                    }
                                    let scalar = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                    char::from_u32(scalar).ok_or("bad surrogate pair")?
                                }
                                0xDC00..=0xDFFF => return Err("unpaired low surrogate".into()),
                                _ => char::from_u32(code).ok_or("bad \\u escape")?,
                            };
                            out.push(c);
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so byte
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Reads the four hex digits of a `\u` escape (cursor on the `u`)
    /// and leaves the cursor on the last digit.
    fn hex_escape(&mut self) -> Result<u32, String> {
        let hex = self
            .bytes
            .get(self.pos + 1..self.pos + 5)
            .ok_or("truncated \\u escape")?;
        let code = u32::from_str_radix(std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?, 16)
            .map_err(|_| "bad \\u escape")?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
}

// ---------------------------------------------------------------------------
// Typed sweep documents (v5)
// ---------------------------------------------------------------------------

/// A failed cell's error record (see [`parse_sweep`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepCellError {
    /// Failure class (`"panic"` or `"config"`).
    pub kind: String,
    /// Panic payload or configuration error message.
    pub message: String,
    /// Execution attempts consumed.
    pub attempts: u64,
}

/// One parsed sweep cell (see [`parse_sweep`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepCellDoc {
    /// Subject (workload or mix) name.
    pub subject: String,
    /// Device-family spec string.
    pub family: String,
    /// Effective timing spec string.
    pub timing: String,
    /// Mechanism spec string.
    pub mechanism: String,
    /// Variant label.
    pub variant: String,
    /// Application name per core.
    pub apps: Vec<String>,
    /// Per-core IPC.
    pub ipc: Vec<f64>,
    /// Sum of per-core IPCs.
    pub ipc_sum: f64,
    /// Simulated CPU cycles of the measured interval.
    pub cpu_cycles: u64,
    /// HCRAC hit rate (absent for mechanisms without an HCRAC).
    pub hcrac_hit_rate: Option<f64>,
    /// Total DRAM energy in mJ.
    pub energy_mj: f64,
    /// Mechanism counters.
    pub mech_counters: Vec<(String, u64)>,
    /// Why this cell failed. `Some` means the metric fields above hold
    /// defaults (empty `ipc`, zeros) — only the identity members were
    /// recorded.
    pub error: Option<SweepCellError>,
}

impl SweepCellDoc {
    /// This cell's full identity (every field set).
    pub fn id(&self) -> CellId {
        CellId::new()
            .subject(&self.subject)
            .family(&self.family)
            .timing(&self.timing)
            .mechanism(&self.mechanism)
            .variant(&self.variant)
    }
}

/// A parsed sweep document (see [`parse_sweep`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepDoc {
    /// Schema version (always 5: [`parse_sweep`] reads only v5).
    pub schema_version: u32,
    /// Device-family axis as spec strings.
    pub families: Vec<String>,
    /// Timing axis as spec strings.
    pub timings: Vec<String>,
    /// Mechanism axis as spec strings.
    pub mechanisms: Vec<String>,
    /// Variant labels.
    pub variants: Vec<String>,
    /// Alone-run mechanism spec string, if recorded.
    pub alone_mechanism: Option<String>,
    /// Alone-run IPC per workload, in document order.
    pub alone_ipc: Vec<(String, f64)>,
    /// All cells, in document order.
    pub cells: Vec<SweepCellDoc>,
}

impl SweepDoc {
    /// The first cell, in document order, that `id` matches (the
    /// matching rules of [`crate::api::SweepResult::get`]).
    pub fn get(&self, id: &CellId) -> Option<&SweepCellDoc> {
        self.select(id).next()
    }

    /// Every cell that `id` matches, in document order.
    pub fn select(&self, id: &CellId) -> impl Iterator<Item = &SweepCellDoc> {
        let id = id.clone();
        self.cells.iter().filter(move |c| id.matches(&c.id()))
    }
}

fn str_field(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field {key:?}"))
}

fn num_field(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_num)
        .ok_or_else(|| format!("missing numeric field {key:?}"))
}

fn str_arr(v: &Json, key: &str) -> Result<Vec<String>, String> {
    v.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing array field {key:?}"))?
        .iter()
        .map(|x| {
            x.as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("non-string entry in {key:?}"))
        })
        .collect()
}

/// The members of the `{name: number}` object at `key`.
fn num_members(v: &Json, key: &str) -> Result<Vec<(String, f64)>, String> {
    let Some(Json::Obj(members)) = v.get(key) else {
        return Err(format!("{key:?} must be an object"));
    };
    members
        .iter()
        .map(|(k, x)| {
            x.as_num()
                .map(|x| (k.clone(), x))
                .ok_or_else(|| format!("non-numeric {key:?} entry {k:?}"))
        })
        .collect()
}

/// Parses a `chargecache-sweep/v5` document into a [`SweepDoc`]. Failed
/// cells populate [`SweepCellDoc::error`] and default the metric fields.
///
/// # Errors
///
/// Returns a message on syntax errors, missing fields or any other
/// schema. An archived v1–v4 document is rejected with a pointer to the
/// "Upgrading archived documents" section of `docs/SCHEMA.md`, which
/// turns it into v5 in a few mechanical edits.
pub fn parse_sweep(text: &str) -> Result<SweepDoc, String> {
    let doc = parse(text.trim())?;
    match str_field(&doc, "schema")?.as_str() {
        SCHEMA_V5 => {}
        old @ ("chargecache-sweep/v1"
        | "chargecache-sweep/v2"
        | "chargecache-sweep/v3"
        | "chargecache-sweep/v4") => {
            return Err(format!(
                "{old:?} is an archived sweep schema; upgrade it to {SCHEMA_V5:?} as \
                 docs/SCHEMA.md \"Upgrading archived documents\" describes"
            ))
        }
        other => return Err(format!("unknown sweep schema {other:?}")),
    }
    let mechanisms = str_arr(&doc, "mechanisms")?;
    let variants = str_arr(&doc, "variants")?;
    let timings = str_arr(&doc, "timings")?;
    let families = str_arr(&doc, "families")?;
    let (alone_mechanism, alone_ipc) = match doc.get("alone_ipc") {
        None | Some(Json::Null) => (None, Vec::new()),
        Some(alone) => (
            alone
                .get("mechanism")
                .and_then(Json::as_str)
                .map(str::to_string),
            num_members(alone, "ipc")?,
        ),
    };
    let mut cells = Vec::new();
    for cell in doc
        .get("cells")
        .and_then(Json::as_arr)
        .ok_or("missing array field \"cells\"")?
    {
        let mut c = SweepCellDoc {
            subject: str_field(cell, "subject")?,
            family: str_field(cell, "family")?,
            timing: str_field(cell, "timing")?,
            mechanism: str_field(cell, "mechanism")?,
            variant: str_field(cell, "variant")?,
            apps: str_arr(cell, "apps")?,
            ..SweepCellDoc::default()
        };
        match cell.get("error") {
            // A failed cell: identity members + error object, no metrics.
            Some(err) => {
                c.error = Some(SweepCellError {
                    kind: str_field(err, "kind")?,
                    message: str_field(err, "message")?,
                    attempts: num_field(err, "attempts")? as u64,
                })
            }
            None => {
                c.ipc = cell
                    .get("ipc")
                    .and_then(Json::as_arr)
                    .ok_or("cell missing \"ipc\"")?
                    .iter()
                    .map(|v| v.as_num().ok_or("non-numeric ipc entry"))
                    .collect::<Result<Vec<_>, _>>()?;
                c.mech_counters = num_members(cell, "mech")?
                    .into_iter()
                    .map(|(k, x)| (k, x as u64))
                    .collect();
                c.ipc_sum = num_field(cell, "ipc_sum")?;
                c.cpu_cycles = num_field(cell, "cpu_cycles")? as u64;
                c.hcrac_hit_rate = cell.get("hcrac_hit_rate").and_then(Json::as_num);
                c.energy_mj = num_field(cell, "energy_mj")?;
            }
        }
        cells.push(c);
    }
    Ok(SweepDoc {
        schema_version: 5,
        families,
        timings,
        mechanisms,
        variants,
        alone_mechanism,
        alone_ipc,
        cells,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_a_document() {
        let doc = Json::Obj(vec![
            ("name".into(), Json::str("w1 \"quoted\"\n")),
            ("ipc".into(), Json::num(0.75)),
            ("cap".into(), Json::Bool(false)),
            (
                "xs".into(),
                Json::Arr(vec![Json::uint(1), Json::Null, Json::num(2.5)]),
            ),
        ]);
        let text = doc.to_string();
        assert_eq!(parse(&text).unwrap(), doc);
    }

    #[test]
    fn non_finite_floats_encode_as_null() {
        assert_eq!(Json::num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn decodes_surrogate_pairs_and_rejects_lone_halves() {
        // U+1F600 escaped as the standard surrogate pair, and a BMP
        // escape.
        assert_eq!(
            parse(r#""\ud83d\ude00""#).unwrap(),
            Json::Str("\u{1F600}".into())
        );
        assert_eq!(parse(r#""\u00e9""#).unwrap(), Json::Str("é".into()));
        // Raw (unescaped) non-BMP text also round-trips.
        assert_eq!(parse("\"😀\"").unwrap(), Json::Str("😀".into()));
        assert!(parse(r#""\ud83d""#).is_err(), "unpaired high surrogate");
        assert!(parse(r#""\ude00""#).is_err(), "unpaired low surrogate");
        assert!(parse(r#""\ud83dA""#).is_err(), "bad low surrogate");
    }

    #[test]
    fn parses_nested_whitespace() {
        let v = parse(" { \"a\" : [ 1 , { \"b\" : null } ] } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn parse_sweep_reads_error_cells() {
        let v5 = r#"{
            "schema":"chargecache-sweep/v5",
            "params":{"insts_per_core":2000,"warmup_insts":500,"max_cycle_factor":300,"seed":42},
            "families":["ddr3"],
            "timings":["ddr3-1600"],
            "mechanisms":["baseline","faulty"],
            "variants":["paper"],
            "alone_ipc":null,
            "cells":[
                {"subject":"tpch2","family":"ddr3","timing":"ddr3-1600","mechanism":"baseline",
                 "variant":"paper","apps":["tpch2"],"ipc":[0.75],"ipc_sum":0.75,"rmpkc":1.5,
                 "hcrac_hit_rate":null,"mech":{},"energy_mj":0.002,"cpu_cycles":4000,
                 "hit_cycle_cap":false},
                {"subject":"tpch2","family":"ddr3","timing":"ddr3-1600","mechanism":"faulty",
                 "variant":"paper","apps":["tpch2"],
                 "error":{"kind":"panic","message":"injected fault","attempts":2}}
            ]
        }"#;
        let doc = parse_sweep(v5).unwrap();
        assert_eq!(doc.schema_version, 5);
        assert_eq!(doc.families, ["ddr3"]);
        let tpch2 = CellId::new().subject("tpch2").variant("paper");
        let ok = doc.get(&tpch2.clone().mechanism("baseline")).unwrap();
        assert!(ok.error.is_none());
        assert_eq!(ok.ipc, [0.75]);
        let failed = doc.get(&tpch2.mechanism("faulty")).unwrap();
        assert_eq!(failed.family, "ddr3");
        let err = failed.error.as_ref().unwrap();
        assert_eq!(err.kind, "panic");
        assert_eq!(err.message, "injected fault");
        assert_eq!(err.attempts, 2);
        assert!(failed.ipc.is_empty());
    }

    #[test]
    fn parse_sweep_rejects_v1_documents_and_their_upgrade_normalizes_mechanisms() {
        // A minimal archived v1 document (the pre-redesign encoder's
        // layout with fixed mechanism ids).
        let v1 = r#"{
            "schema":"chargecache-sweep/v1",
            "params":{"insts_per_core":2000,"warmup_insts":500,"max_cycle_factor":300,"seed":42},
            "mechanisms":["baseline","cc","ccnuat"],
            "variants":["128"],
            "alone_ipc":{"mechanism":"cc","ipc":{"tpch2":0.5}},
            "cells":[{
                "subject":"tpch2","mechanism":"cc","variant":"128",
                "apps":["tpch2"],"ipc":[0.75],"ipc_sum":0.75,
                "rmpkc":1.5,"hcrac_hit_rate":0.25,"energy_mj":0.002,
                "cpu_cycles":4000,"hit_cycle_cap":false
            }]
        }"#;
        let err = parse_sweep(v1).unwrap_err();
        assert!(err.contains("chargecache-sweep/v1"), "{err}");
        assert!(err.contains("docs/SCHEMA.md"), "{err}");
        assert!(err.contains("Upgrading archived documents"), "{err}");

        // The steps docs/SCHEMA.md gives for a v1 document.
        fn v1_id(v: &mut Json) {
            if let Json::Str(s) = v {
                match s.as_str() {
                    "cc" => *s = "chargecache".into(),
                    "ccnuat" => *s = "cc-nuat".into(),
                    _ => {}
                }
            }
        }
        let Json::Obj(mut top) = parse(v1).unwrap() else {
            panic!("sweep documents are objects")
        };
        for (key, value) in &mut top {
            match (key.as_str(), value) {
                ("schema", v) => *v = Json::str(SCHEMA_V5),
                ("mechanisms", Json::Arr(ids)) => ids.iter_mut().for_each(v1_id),
                ("alone_ipc", Json::Obj(members)) => {
                    for (k, v) in members {
                        if k == "mechanism" {
                            v1_id(v);
                        }
                    }
                }
                ("cells", Json::Arr(cells)) => {
                    for cell in cells {
                        let Json::Obj(members) = cell else {
                            panic!("cells are objects")
                        };
                        for (k, v) in members.iter_mut() {
                            if k == "mechanism" {
                                v1_id(v);
                            }
                        }
                        members.push(("mech".into(), Json::Obj(vec![])));
                        members.push(("timing".into(), Json::str("ddr3-1600")));
                        members.push(("family".into(), Json::str("ddr3")));
                    }
                }
                _ => {}
            }
        }
        top.push(("timings".into(), Json::Arr(vec![Json::str("ddr3-1600")])));
        top.push(("families".into(), Json::Arr(vec![Json::str("ddr3")])));

        let doc = parse_sweep(&Json::Obj(top).to_string()).unwrap();
        assert_eq!(doc.mechanisms, ["baseline", "chargecache", "cc-nuat"]);
        assert_eq!(doc.timings, ["ddr3-1600"]);
        assert_eq!(doc.families, ["ddr3"]);
        assert_eq!(doc.alone_mechanism.as_deref(), Some("chargecache"));
        assert_eq!(doc.alone_ipc, vec![("tpch2".to_string(), 0.5)]);
        let id = CellId::new()
            .subject("tpch2")
            .mechanism("chargecache")
            .variant("128");
        let cell = doc.get(&id).unwrap();
        assert_eq!(
            (cell.timing.as_str(), cell.family.as_str()),
            ("ddr3-1600", "ddr3")
        );
        assert_eq!(cell.ipc, [0.75]);
        assert_eq!(cell.cpu_cycles, 4000);
        assert_eq!(cell.hcrac_hit_rate, Some(0.25));
        assert!(cell.mech_counters.is_empty(), "v1 has no counter block");
    }

    #[test]
    fn parse_sweep_rejects_unknown_schemas() {
        let err = parse_sweep(r#"{"schema":"chargecache-sweep/v9"}"#).unwrap_err();
        assert!(err.contains("unknown sweep schema"), "{err}");
        assert!(parse_sweep("not json").is_err());
    }
}
