//! The `name(key=val,...)` spec grammar every configuration axis shares,
//! and the timing axis's [`TimingSpec`].
//!
//! The simulator names each axis of the paper's design space — the
//! ChargeCache mechanism and its knobs, the DDR timing it shortens, the
//! device family — with a [`Spec`]: a name plus typed key/value
//! parameters, parsed and printed by the one grammar below.
//!
//! ```text
//! spec     := name | name "(" params ")"
//! params   := param ("," param)*
//! param    := key "=" value
//! value    := bool | int | float | duration | token
//! duration := float "ms"            # e.g. 1ms, 2.5ms
//! ```
//!
//! Names, keys and bare tokens match `[A-Za-z_][A-Za-z0-9_.+-]*`;
//! whitespace around tokens is ignored. Every spec round-trips:
//! `spec.to_string().parse()` reproduces it exactly. Each kind of spec is
//! a thin wrapper over [`Spec`] whose parser accepts only the value shapes
//! its resolver can use:
//!
//! | kind | accepted values | default | name resolves through |
//! |------|-----------------|---------|-----------------------|
//! | `MechanismSpec` (crate `chargecache`) | all | — | the mechanism registry |
//! | [`TimingSpec`] | int, float | `ddr3-1600` | [`SpeedBin::ALL`] |
//! | [`FamilySpec`](crate::family::FamilySpec) | int, token, bool | `ddr3` | the built-in family table |
//!
//! # Example
//!
//! ```
//! use dram::{TimingParams, TimingSpec};
//!
//! // The default spec is the paper's Table 1 device.
//! let spec = TimingSpec::default();
//! assert_eq!(spec.to_string(), "ddr3-1600");
//! assert_eq!(spec.resolve().unwrap(), TimingParams::ddr3_1600());
//!
//! // Presets resolve to their JEDEC CL-tRCD-tRP triplet; overrides
//! // patch individual fields after the preset is applied.
//! let spec: TimingSpec = "ddr3-2133(trcd=13)".parse().unwrap();
//! let t = spec.resolve().unwrap();
//! assert_eq!((t.tcl, t.trcd, t.trp), (14, 13, 14));
//! assert_eq!(spec.to_string(), "ddr3-2133(trcd=13)");
//!
//! // Cycle counts are numbers: other value shapes fail to parse.
//! assert!("ddr3-1600(trcd=abc)".parse::<TimingSpec>().is_err());
//!
//! // Incoherent parameter sets are rejected, not simulated.
//! assert!("ddr3-1600(tras=50)".parse::<TimingSpec>().unwrap().resolve().is_err());
//! assert!("ddr9-9999".parse::<TimingSpec>().unwrap().resolve().is_err());
//! ```

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::str::FromStr;

use crate::timing::{SpeedBin, TimingParams};

// ---------------------------------------------------------------------------
// Parameter values
// ---------------------------------------------------------------------------

/// One typed parameter value of a [`Spec`].
#[derive(Debug, Clone, PartialEq)]
pub enum ParamValue {
    /// `true` / `false`.
    Bool(bool),
    /// A signed integer (no decimal point).
    Int(i64),
    /// A float (always displayed with a decimal point or exponent).
    Float(f64),
    /// A duration in milliseconds (`1ms`, `2.5ms`).
    DurationMs(f64),
    /// A bare token (e.g. `invalidation=exact`).
    Str(String),
}

impl ParamValue {
    /// The value's shape as a kind's parser names it: `bool`, `int`,
    /// `float`, `duration` or `token`.
    pub fn shape(&self) -> &'static str {
        match self {
            ParamValue::Bool(_) => "bool",
            ParamValue::Int(_) => "int",
            ParamValue::Float(_) => "float",
            ParamValue::DurationMs(_) => "duration",
            ParamValue::Str(_) => "token",
        }
    }
}

impl fmt::Display for ParamValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamValue::Bool(b) => write!(f, "{b}"),
            ParamValue::Int(i) => write!(f, "{i}"),
            ParamValue::Float(x) => {
                let s = format!("{x}");
                if s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN") {
                    f.write_str(&s)
                } else {
                    write!(f, "{s}.0")
                }
            }
            ParamValue::DurationMs(x) => write!(f, "{x}ms"),
            ParamValue::Str(s) => f.write_str(s),
        }
    }
}

/// True for tokens matching `[A-Za-z_][A-Za-z0-9_.+-]*`.
fn is_token(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '+' | '-'))
}

impl FromStr for ParamValue {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let s = s.trim();
        if s.is_empty() {
            return Err("empty parameter value".into());
        }
        match s {
            "true" => return Ok(ParamValue::Bool(true)),
            "false" => return Ok(ParamValue::Bool(false)),
            _ => {}
        }
        // Only tokens that *start* numerically are candidates for the
        // numeric types; word-shaped tokens `f64` happens to accept
        // ("inf", "nan", "infms") stay `Str`, so Display → FromStr is
        // the identity on every accepted value.
        let numeric_shaped =
            s.starts_with(|c: char| c.is_ascii_digit() || matches!(c, '-' | '+' | '.'));
        if numeric_shaped {
            if let Some(ms) = s.strip_suffix("ms") {
                if let Ok(x) = ms.parse::<f64>() {
                    if !x.is_finite() {
                        return Err(format!("non-finite duration {s:?}"));
                    }
                    return Ok(ParamValue::DurationMs(x));
                }
            }
            if let Ok(i) = s.parse::<i64>() {
                return Ok(ParamValue::Int(i));
            }
            if let Ok(x) = s.parse::<f64>() {
                if !x.is_finite() {
                    return Err(format!("non-finite number {s:?}"));
                }
                return Ok(ParamValue::Float(x));
            }
        }
        if is_token(s) {
            return Ok(ParamValue::Str(s.to_string()));
        }
        Err(format!("unparsable parameter value {s:?}"))
    }
}

// ---------------------------------------------------------------------------
// Spec
// ---------------------------------------------------------------------------

/// A name plus typed parameters: the value every spec kind wraps.
///
/// Parameters keep insertion order, so [`fmt::Display`] output is
/// deterministic; only *explicitly set* parameters are stored — whatever
/// the name resolves to supplies the defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    name: String,
    params: Vec<(String, ParamValue)>,
}

impl Spec {
    /// A spec with no parameters. Unknown (but well-formed) names are
    /// accepted here and rejected when the spec is resolved.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a valid token
    /// (`[A-Za-z_][A-Za-z0-9_.+-]*`).
    pub fn new(name: impl Into<String>) -> Self {
        let name = name.into();
        assert!(is_token(&name), "invalid spec name {name:?}");
        Self {
            name,
            params: Vec::new(),
        }
    }

    /// Builder-style parameter setter.
    ///
    /// # Panics
    ///
    /// Panics if `key` is not a valid token.
    #[must_use]
    pub fn with(mut self, key: impl Into<String>, value: ParamValue) -> Self {
        self.set(key, value);
        self
    }

    /// Sets (or replaces) one parameter.
    ///
    /// # Panics
    ///
    /// Panics if `key` is not a valid token.
    pub fn set(&mut self, key: impl Into<String>, value: ParamValue) {
        let key = key.into();
        assert!(is_token(&key), "invalid parameter key {key:?}");
        match self.params.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => *v = value,
            None => self.params.push((key, value)),
        }
    }

    /// The name (the lookup key of whatever the spec resolves through).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The explicitly set parameters, in insertion order.
    pub fn params(&self) -> &[(String, ParamValue)] {
        &self.params
    }

    /// One parameter, if explicitly set.
    pub fn get(&self, key: &str) -> Option<&ParamValue> {
        self.params.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// A positive integer parameter with a default.
    ///
    /// # Errors
    ///
    /// Returns a message if the value is present but not a non-negative
    /// integer.
    pub fn usize_param(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.get(key) {
            None => Ok(default),
            Some(ParamValue::Int(i)) if *i >= 0 => Ok(*i as usize),
            Some(v) => Err(format!("{key} must be a non-negative integer, got {v}")),
        }
    }

    /// A float parameter with a default (accepts ints, floats and
    /// durations).
    ///
    /// # Errors
    ///
    /// Returns a message if the value is present but not numeric.
    pub fn f64_param(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(ParamValue::Int(i)) => Ok(*i as f64),
            Some(ParamValue::Float(x)) | Some(ParamValue::DurationMs(x)) => Ok(*x),
            Some(v) => Err(format!("{key} must be numeric, got {v}")),
        }
    }

    /// A duration parameter in milliseconds with a default (bare numbers
    /// are read as milliseconds).
    ///
    /// # Errors
    ///
    /// Returns a message if the value is present but not numeric.
    pub fn duration_ms_param(&self, key: &str, default: f64) -> Result<f64, String> {
        self.f64_param(key, default)
    }

    /// A boolean parameter with a default.
    ///
    /// # Errors
    ///
    /// Returns a message if the value is present but not a boolean.
    pub fn bool_param(&self, key: &str, default: bool) -> Result<bool, String> {
        match self.get(key) {
            None => Ok(default),
            Some(ParamValue::Bool(b)) => Ok(*b),
            Some(v) => Err(format!("{key} must be true or false, got {v}")),
        }
    }

    /// A token parameter with a default.
    ///
    /// # Errors
    ///
    /// Returns a message if the value is present but not a bare token.
    pub fn str_param(&self, key: &str, default: &str) -> Result<String, String> {
        match self.get(key) {
            None => Ok(default.to_string()),
            Some(ParamValue::Str(s)) => Ok(s.clone()),
            Some(v) => Err(format!("{key} must be a token, got {v}")),
        }
    }

    /// Parses the grammar, accepting only values whose
    /// [`ParamValue::shape`] is in `shapes`. `kind` names the spec kind in
    /// error messages. Each spec kind's `FromStr` delegates here.
    ///
    /// # Errors
    ///
    /// Returns a message for malformed text, a duplicate key or a value
    /// of a shape the kind does not accept.
    pub fn parse(s: &str, kind: &str, shapes: &[&str]) -> Result<Spec, String> {
        let s = s.trim();
        let (name, params_src) = match s.find('(') {
            None => (s, None),
            Some(open) => {
                let Some(body) = s[open + 1..].strip_suffix(')') else {
                    return Err(format!("{kind} spec {s:?} is missing its closing ')'"));
                };
                (&s[..open], Some(body))
            }
        };
        let name = name.trim();
        if !is_token(name) {
            return Err(format!("invalid {kind} name {name:?}"));
        }
        let mut spec = Spec::new(name);
        let body = params_src.map_or("", str::trim);
        if body.is_empty() {
            return Ok(spec);
        }
        for part in body.split(',') {
            let Some((k, v)) = part.split_once('=') else {
                return Err(format!("{kind} parameter {part:?} is not key=value"));
            };
            let k = k.trim();
            if !is_token(k) {
                return Err(format!("invalid {kind} key {k:?}"));
            }
            if spec.get(k).is_some() {
                return Err(format!("duplicate {kind} parameter {k:?}"));
            }
            let v: ParamValue = v.parse()?;
            if !shapes.contains(&v.shape()) {
                return Err(format!(
                    "{kind} parameter {k}={v} must be {}, not {}",
                    shapes.join(" or "),
                    v.shape()
                ));
            }
            spec.set(k, v);
        }
        Ok(spec)
    }
}

impl fmt::Display for Spec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)?;
        if self.params.is_empty() {
            return Ok(());
        }
        f.write_str("(")?;
        for (i, (k, v)) in self.params.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{k}={v}")?;
        }
        f.write_str(")")
    }
}

// ---------------------------------------------------------------------------
// TimingSpec
// ---------------------------------------------------------------------------

/// A DRAM timing selection: a speed-bin preset name plus overrides —
/// cycle counts, or nanoseconds for `tck`.
///
/// Only *explicitly set* overrides are stored; the preset supplies every
/// other field at resolution time. Parse with [`FromStr`]
/// (`"ddr3-1866(trcd=12,tfaw=26)".parse()`); the [`Spec`] accessors are
/// reachable through `Deref`.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingSpec(Spec);

/// Override keys accepted by [`TimingSpec::resolve`]: every
/// [`TimingParams`] cycle field plus `tck` (the clock period in ns).
pub const TIMING_KEYS: &[&str] = &[
    "tck", "trcd", "tcl", "tcwl", "trp", "tras", "trc", "tbl", "tccd", "trtp", "twr", "twtr",
    "trrd", "tfaw", "trfc", "trefi", "trtrs", "tccd_l", "tccd_s", "trrd_l", "trrd_s", "trfcpb",
];

impl TimingSpec {
    /// A spec with no overrides (see [`Spec::new`]).
    pub fn new(preset: impl Into<String>) -> Self {
        Self(Spec::new(preset))
    }

    /// A spec for a named speed bin (no overrides).
    pub fn for_bin(bin: SpeedBin) -> Self {
        Self::new(bin.name())
    }

    /// True when this spec resolves to the same parameter set as the
    /// bare default (`ddr3-1600`) — the configuration every pre-preset
    /// result was produced under.
    ///
    /// The comparison is structural, not textual: an explicitly-written
    /// `ddr3-1600()` or a redundant override (`ddr3-1600(trcd=11)`)
    /// behaves exactly like the bare default, while any spec that fails
    /// to resolve is by definition not the default.
    pub fn is_default(&self) -> bool {
        self.resolve().is_ok_and(|t| t == TimingParams::ddr3_1600())
    }

    /// Resolves the spec into a concrete, validated parameter set: the
    /// preset's [`TimingParams`] with each override applied, then checked
    /// by [`TimingParams::validate`].
    ///
    /// # Errors
    ///
    /// Returns a message if the preset name is unknown, an override key
    /// is not one of [`TIMING_KEYS`], a cycle field is given anything but
    /// a `u32` integer, or the resulting parameter set is incoherent
    /// (e.g. `tras` exceeding `trc`, a zero `tck`).
    pub fn resolve(&self) -> Result<TimingParams, String> {
        let Some(bin) = SpeedBin::from_name(self.name()) else {
            let known: Vec<&str> = SpeedBin::ALL.iter().map(|b| b.name()).collect();
            return Err(format!(
                "unknown timing preset {:?} (known: {})",
                self.name(),
                known.join(", ")
            ));
        };
        let mut t = bin.timing();
        // Group-spacing fields inherit their base value (`tccd_l`/`tccd_s`
        // from `tccd`, `trrd_l`/`trrd_s` from `trrd`, `trfcpb` from
        // `trfc`) unless explicitly overridden, so a plain `tccd=6`
        // override keeps its historical meaning of "all column spacing".
        let explicit = |k: &str| self.get(k).is_some();
        for (key, value) in self.params() {
            let cycles = || {
                match value {
                    ParamValue::Int(i) => u32::try_from(*i).ok(),
                    _ => None,
                }
                .ok_or_else(|| format!("{key} must be an integer cycle count, got {value}"))
            };
            match key.as_str() {
                "tck" => {
                    let ns = self.f64_param(key, t.tck_ns)?;
                    if !(ns.is_finite() && ns > 0.0) {
                        return Err(format!("tck must be a positive period in ns, got {value}"));
                    }
                    t.tck_ns = ns;
                }
                "trcd" => t.trcd = cycles()?,
                "tcl" => t.tcl = cycles()?,
                "tcwl" => t.tcwl = cycles()?,
                "trp" => t.trp = cycles()?,
                "tras" => t.tras = cycles()?,
                "trc" => t.trc = cycles()?,
                "tbl" => t.tbl = cycles()?,
                "tccd" => {
                    t.tccd = cycles()?;
                    if !explicit("tccd_l") {
                        t.tccd_l = t.tccd;
                    }
                    if !explicit("tccd_s") {
                        t.tccd_s = t.tccd;
                    }
                }
                "trtp" => t.trtp = cycles()?,
                "twr" => t.twr = cycles()?,
                "twtr" => t.twtr = cycles()?,
                "trrd" => {
                    t.trrd = cycles()?;
                    if !explicit("trrd_l") {
                        t.trrd_l = t.trrd;
                    }
                    if !explicit("trrd_s") {
                        t.trrd_s = t.trrd;
                    }
                }
                "tfaw" => t.tfaw = cycles()?,
                "trfc" => {
                    t.trfc = cycles()?;
                    if !explicit("trfcpb") {
                        t.trfcpb = t.trfc;
                    }
                }
                "trefi" => t.trefi = cycles()?,
                "trtrs" => t.trtrs = cycles()?,
                "tccd_l" => t.tccd_l = cycles()?,
                "tccd_s" => t.tccd_s = cycles()?,
                "trrd_l" => t.trrd_l = cycles()?,
                "trrd_s" => t.trrd_s = cycles()?,
                "trfcpb" => t.trfcpb = cycles()?,
                other => {
                    return Err(format!(
                        "unknown timing parameter {other:?} (known: {})",
                        TIMING_KEYS.join(", ")
                    ))
                }
            }
        }
        t.validate()
            .map_err(|e| format!("incoherent timing spec {self}: {e}"))?;
        Ok(t)
    }

    /// `(name, description, params)` for every preset, in speed order
    /// (drives `cc-sim --list-timings`).
    pub fn presets() -> Vec<(&'static str, &'static str, TimingParams)> {
        SpeedBin::ALL
            .iter()
            .map(|b| (b.name(), b.describe(), b.timing()))
            .collect()
    }
}

impl Default for TimingSpec {
    /// The paper's Table 1 device: bare `ddr3-1600`.
    fn default() -> Self {
        Self::for_bin(SpeedBin::Ddr3_1600)
    }
}

impl Deref for TimingSpec {
    type Target = Spec;
    fn deref(&self) -> &Spec {
        &self.0
    }
}

impl DerefMut for TimingSpec {
    fn deref_mut(&mut self) -> &mut Spec {
        &mut self.0
    }
}

impl fmt::Display for TimingSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl FromStr for TimingSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        Spec::parse(s, "timing", &["int", "float"]).map(Self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_is_the_paper_device() {
        let spec = TimingSpec::default();
        assert!(spec.is_default());
        assert_eq!(spec.resolve().unwrap(), TimingParams::ddr3_1600());
    }

    #[test]
    fn every_preset_resolves_and_round_trips() {
        for (name, _describe, params) in TimingSpec::presets() {
            let spec: TimingSpec = name.parse().unwrap();
            assert_eq!(spec.to_string(), name);
            assert_eq!(spec.resolve().unwrap(), params);
        }
    }

    #[test]
    fn overrides_patch_individual_fields() {
        let spec: TimingSpec = "ddr3-1600(trcd=13,tck=1.5)".parse().unwrap();
        let t = spec.resolve().unwrap();
        assert_eq!(t.trcd, 13);
        assert_eq!(t.tck_ns, 1.5);
        // Unpatched fields keep the preset values.
        assert_eq!(t.tcl, 11);
        assert_eq!(spec.to_string(), "ddr3-1600(trcd=13,tck=1.5)");
    }

    #[test]
    fn resolve_rejects_bad_specs() {
        for (src, needle) in [
            ("ddr9-9999", "unknown timing preset"),
            ("ddr3-1600(bogus=1)", "unknown timing parameter"),
            ("ddr3-1600(trcd=1.5)", "integer cycle count"),
            ("ddr3-1600(tck=0)", "positive"),
            ("ddr3-1600(tras=50)", "incoherent"), // tras > trc
            ("ddr3-1600(trcd=30)", "incoherent"), // trcd > tras
            ("ddr3-1600(trcd=0)", "incoherent"),
        ] {
            let err = src.parse::<TimingSpec>().unwrap().resolve().unwrap_err();
            assert!(err.contains(needle), "{src}: {err}");
        }
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "",
            "ddr3-1600(",
            "ddr3-1600)x",
            "ddr3-1600(trcd)",
            "ddr3-1600(trcd=13,trcd=14)",
            "ddr3-1600(=1)",
            "3ddr",
            "ddr3-1600(k=)",
            "ddr3-1600(k=1)junk",
            "ddr3-1600(trcd=abc)",
        ] {
            assert!(bad.parse::<TimingSpec>().is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parse_tolerates_whitespace_and_normalizes() {
        let spec: TimingSpec = "  ddr3-1866 ( trcd = 12 , tfaw = 26 )  ".parse().unwrap();
        assert_eq!(spec.to_string(), "ddr3-1866(trcd=12,tfaw=26)");
        let bare: TimingSpec = "ddr3-1333()".parse().unwrap();
        assert_eq!(bare.to_string(), "ddr3-1333");
        assert!(!bare.is_default());
    }

    #[test]
    fn float_values_keep_their_type_through_display() {
        assert_eq!(ParamValue::Float(2.0).to_string(), "2.0");
        assert_eq!("2.0".parse::<ParamValue>().unwrap(), ParamValue::Float(2.0));
        assert_eq!("2".parse::<ParamValue>().unwrap(), ParamValue::Int(2));
    }
}
