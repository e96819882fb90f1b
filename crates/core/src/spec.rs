//! Open mechanism plugin API: typed specs, factories and the registry.
//!
//! A latency mechanism is configured by a [`MechanismSpec`] — a name plus
//! typed key/value parameters with a string grammar
//! (`name(key=val,...)`) — and instantiated through a
//! [`MechanismRegistry`] of [`MechanismFactory`] objects. The five paper
//! mechanisms are registered by default; library users register custom
//! mechanisms with [`registry::register_mechanism`] and can then run them through
//! `SystemConfig`, `sim::api::Experiment` sweeps and the
//! `cc-sim --mechanism` flag **without touching `crates/core`**.
//!
//! # Spec grammar
//!
//! A [`MechanismSpec`] is written in the `name(key=val,...)` grammar
//! shared by every spec kind (see [`dram::spec`]) and accepts every value
//! shape: bool, int, float, duration (`1ms`) and token. It round-trips:
//! `spec.to_string().parse()` reproduces the spec exactly.
//!
//! # Example
//!
//! ```
//! use chargecache::MechanismSpec;
//!
//! let spec: MechanismSpec = "chargecache(entries=1024, duration=2ms)".parse().unwrap();
//! assert_eq!(spec.name(), "chargecache");
//! assert_eq!(spec.to_string(), "chargecache(entries=1024,duration=2ms)");
//!
//! // Built-in specs are registered by default:
//! use chargecache::registry;
//! registry::validate_spec(&spec).unwrap();
//! assert!(registry::validate_spec(&"chargecache(entries=0)".parse().unwrap()).is_err());
//! ```
//!
//! # Registering a custom mechanism
//!
//! ```
//! use chargecache::{
//!     registry, Baseline, LatencyMechanism, MechanismContext, MechanismFactory, MechanismSpec,
//! };
//!
//! struct MyFactory;
//!
//! impl MechanismFactory for MyFactory {
//!     fn name(&self) -> &str {
//!         "doc-baseline"
//!     }
//!     fn describe(&self) -> &str {
//!         "specification timings (doctest demo)"
//!     }
//!     fn validate(&self, spec: &MechanismSpec) -> Result<(), String> {
//!         spec.ensure_known_keys(&[])
//!     }
//!     fn build(
//!         &self,
//!         spec: &MechanismSpec,
//!         ctx: &MechanismContext,
//!     ) -> Result<Box<dyn LatencyMechanism>, String> {
//!         self.validate(spec)?;
//!         Ok(Box::new(Baseline::new(ctx.timing)))
//!     }
//! }
//!
//! registry::register_mechanism(std::sync::Arc::new(MyFactory));
//! let spec: MechanismSpec = "doc-baseline".parse().unwrap();
//! assert!(registry::validate_spec(&spec).is_ok());
//! ```

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::str::FromStr;
use std::sync::{Arc, OnceLock, RwLock};

pub use dram::spec::ParamValue;
use dram::spec::Spec;
use dram::TimingParams;

use crate::config::{ChargeCacheConfig, InvalidationPolicy, NuatConfig};
use crate::mechanism::{Baseline, CcNuat, ChargeCache, LatencyMechanism, LlDram, Nuat};
use bitline::derive::CycleQuantized;

// ---------------------------------------------------------------------------
// MechanismSpec
// ---------------------------------------------------------------------------

/// A mechanism configuration: a registered name plus typed parameters.
///
/// Only *explicitly set* parameters are stored — factory defaults apply
/// at build time. Parse with [`FromStr`]
/// (`"chargecache(entries=1024,duration=1ms)".parse()`); the shared
/// [`Spec`] accessors and typed getters are reachable through `Deref`.
#[derive(Debug, Clone, PartialEq)]
pub struct MechanismSpec(Spec);

impl MechanismSpec {
    /// A spec with no parameters (see [`Spec::new`]).
    pub fn new(name: impl Into<String>) -> Self {
        Self(Spec::new(name))
    }

    /// Builder-style parameter setter (see [`Spec::set`]).
    #[must_use]
    pub fn with(self, key: impl Into<String>, value: ParamValue) -> Self {
        Self(self.0.with(key, value))
    }

    /// Rejects any parameter key outside `allowed` (factories call this so
    /// typos fail loudly instead of silently using defaults).
    ///
    /// # Errors
    ///
    /// Returns a message naming the first unknown key.
    pub fn ensure_known_keys(&self, allowed: &[&str]) -> Result<(), String> {
        for (k, _) in self.params() {
            if !allowed.contains(&k.as_str()) {
                return Err(format!(
                    "unknown parameter {k:?} for mechanism {:?} (known: {})",
                    self.name(),
                    if allowed.is_empty() {
                        "none".to_string()
                    } else {
                        allowed.join(", ")
                    }
                ));
            }
        }
        Ok(())
    }

    /// Human-readable label (the paper's legend names for built-ins),
    /// resolved through the global registry; falls back to the name for
    /// unregistered mechanisms.
    pub fn label(&self) -> String {
        registry::label_of(self)
    }
}

impl Deref for MechanismSpec {
    type Target = Spec;
    fn deref(&self) -> &Spec {
        &self.0
    }
}

impl DerefMut for MechanismSpec {
    fn deref_mut(&mut self) -> &mut Spec {
        &mut self.0
    }
}

impl fmt::Display for MechanismSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl FromStr for MechanismSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        Spec::parse(
            s,
            "mechanism",
            &["bool", "int", "float", "duration", "token"],
        )
        .map(Self)
    }
}

// Built-in spec shorthands (paper order).
impl MechanismSpec {
    /// Unmodified DDR3 timing.
    pub fn baseline() -> Self {
        Self::new("baseline")
    }

    /// NUAT (recently-refreshed rows are fast).
    pub fn nuat() -> Self {
        Self::new("nuat")
    }

    /// ChargeCache with the paper's Table 1 defaults.
    pub fn chargecache() -> Self {
        Self::new("chargecache")
    }

    /// ChargeCache with NUAT fallback.
    pub fn cc_nuat() -> Self {
        Self::new("cc-nuat")
    }

    /// Idealized low-latency DRAM.
    pub fn lldram() -> Self {
        Self::new("lldram")
    }

    /// The five comparison points, in the order the paper's figures
    /// present them.
    pub fn paper_all() -> [MechanismSpec; 5] {
        [
            Self::baseline(),
            Self::nuat(),
            Self::chargecache(),
            Self::cc_nuat(),
            Self::lldram(),
        ]
    }
}

// ---------------------------------------------------------------------------
// Factories and the registry
// ---------------------------------------------------------------------------

/// Build-time context handed to a [`MechanismFactory`].
pub struct MechanismContext<'a> {
    /// The DRAM timing parameters of the target system.
    pub timing: &'a TimingParams,
    /// Number of cores in the target system.
    pub cores: usize,
}

/// Builds and validates one named mechanism family.
pub trait MechanismFactory: Send + Sync {
    /// The registered name (the [`Spec::name`] lookup key).
    fn name(&self) -> &str;

    /// Accepted alternate names (e.g. `cc` for `chargecache`).
    fn aliases(&self) -> &[&str] {
        &[]
    }

    /// Human-readable label for figure legends (defaults to the name).
    fn label(&self) -> &str {
        self.name()
    }

    /// One-line description for `cc-sim --list-mechanisms`.
    fn describe(&self) -> &str;

    /// A spec carrying every supported parameter at its default value
    /// (drives `--list-mechanisms` output and parameter patching in
    /// sweeps). Defaults to the bare name (no parameters).
    fn defaults(&self) -> MechanismSpec {
        MechanismSpec::new(self.name().to_string())
    }

    /// Checks a spec without building (unknown keys, out-of-range
    /// values). Called by `SystemConfig::validate`.
    ///
    /// # Errors
    ///
    /// Returns the first violated requirement.
    fn validate(&self, spec: &MechanismSpec) -> Result<(), String>;

    /// Builds one mechanism instance (one per channel).
    ///
    /// # Errors
    ///
    /// Returns the first violated requirement.
    fn build(
        &self,
        spec: &MechanismSpec,
        ctx: &MechanismContext,
    ) -> Result<Box<dyn LatencyMechanism>, String>;
}

/// An ordered collection of [`MechanismFactory`] objects.
///
/// Registration order is preserved (built-ins first, in paper order);
/// registering a factory whose name collides with an existing one
/// replaces it.
pub struct MechanismRegistry {
    factories: Vec<Arc<dyn MechanismFactory>>,
}

impl MechanismRegistry {
    /// An empty registry (no built-ins).
    pub fn empty() -> Self {
        Self {
            factories: Vec::new(),
        }
    }

    /// A registry preloaded with the five paper mechanisms.
    pub fn builtin() -> Self {
        let mut r = Self::empty();
        r.register(Arc::new(BaselineFactory));
        r.register(Arc::new(NuatFactory));
        r.register(Arc::new(ChargeCacheFactory));
        r.register(Arc::new(CcNuatFactory));
        r.register(Arc::new(LlDramFactory));
        r
    }

    /// Registers a factory, replacing any prior factory of the same name.
    pub fn register(&mut self, factory: Arc<dyn MechanismFactory>) {
        if let Some(slot) = self
            .factories
            .iter_mut()
            .find(|f| f.name() == factory.name())
        {
            *slot = factory;
        } else {
            self.factories.push(factory);
        }
    }

    /// The factory registered under `name` (exact name or alias).
    pub fn resolve(&self, name: &str) -> Option<&Arc<dyn MechanismFactory>> {
        self.factories
            .iter()
            .find(|f| f.name() == name || f.aliases().contains(&name))
    }

    /// Every factory, in registration order.
    pub fn factories(&self) -> &[Arc<dyn MechanismFactory>] {
        &self.factories
    }

    /// Validates a spec against its factory.
    ///
    /// # Errors
    ///
    /// Returns a message if the name is unregistered or the factory
    /// rejects the parameters.
    pub fn validate(&self, spec: &MechanismSpec) -> Result<(), String> {
        match self.resolve(spec.name()) {
            None => Err(format!(
                "unknown mechanism {:?} (registered: {})",
                spec.name(),
                self.factories
                    .iter()
                    .map(|f| f.name())
                    .collect::<Vec<_>>()
                    .join(", ")
            )),
            Some(f) => f.validate(spec),
        }
    }

    /// Builds one mechanism instance for `spec`.
    ///
    /// # Errors
    ///
    /// Returns a message if the name is unregistered or the factory
    /// rejects the parameters.
    pub fn build(
        &self,
        spec: &MechanismSpec,
        ctx: &MechanismContext,
    ) -> Result<Box<dyn LatencyMechanism>, String> {
        match self.resolve(spec.name()) {
            None => Err(self.validate(spec).unwrap_err()),
            Some(f) => f.build(spec, ctx),
        }
    }
}

impl Default for MechanismRegistry {
    fn default() -> Self {
        Self::builtin()
    }
}

/// The process-wide registry used by `SystemConfig` and `cc-sim`.
pub mod registry {
    use super::*;

    fn global() -> &'static RwLock<MechanismRegistry> {
        static GLOBAL: OnceLock<RwLock<MechanismRegistry>> = OnceLock::new();
        GLOBAL.get_or_init(|| RwLock::new(MechanismRegistry::builtin()))
    }

    /// Registers a factory in the global registry (replacing any prior
    /// factory of the same name, so re-registration is idempotent).
    pub fn register_mechanism(factory: Arc<dyn MechanismFactory>) {
        global()
            .write()
            .expect("mechanism registry poisoned")
            .register(factory);
    }

    /// Runs `f` with read access to the global registry.
    pub fn with_registry<R>(f: impl FnOnce(&MechanismRegistry) -> R) -> R {
        f(&global().read().expect("mechanism registry poisoned"))
    }

    /// Validates a spec against the global registry
    /// (see [`MechanismRegistry::validate`]).
    ///
    /// # Errors
    ///
    /// Returns a message if the name is unregistered or the parameters
    /// are rejected.
    pub fn validate_spec(spec: &MechanismSpec) -> Result<(), String> {
        with_registry(|r| r.validate(spec))
    }

    /// Builds a mechanism from the global registry
    /// (see [`MechanismRegistry::build`]).
    ///
    /// # Errors
    ///
    /// Returns a message if the name is unregistered or the parameters
    /// are rejected.
    pub fn build_spec(
        spec: &MechanismSpec,
        ctx: &MechanismContext,
    ) -> Result<Box<dyn LatencyMechanism>, String> {
        with_registry(|r| r.build(spec, ctx))
    }

    /// The figure-legend label of a spec (name if unregistered).
    pub fn label_of(spec: &MechanismSpec) -> String {
        with_registry(|r| {
            r.resolve(spec.name())
                .map_or_else(|| spec.name().to_string(), |f| f.label().to_string())
        })
    }

    /// Returns `spec` with its name replaced by the registered factory's
    /// canonical name, resolving aliases (`cc` → `chargecache`,
    /// `ccnuat` → `cc-nuat`, `ll` → `lldram`); parameters are kept.
    /// Unregistered names pass through unchanged (they fail validation
    /// with their own message later).
    pub fn canonicalize(spec: &MechanismSpec) -> MechanismSpec {
        let canonical = with_registry(|r| r.resolve(spec.name()).map(|f| f.name().to_string()));
        match canonical {
            Some(name) if name != spec.name() => {
                let mut renamed = MechanismSpec::new(name);
                for (k, v) in spec.params() {
                    renamed.set(k.clone(), v.clone());
                }
                renamed
            }
            _ => spec.clone(),
        }
    }

    /// True if a factory supports a parameter key (its
    /// [`MechanismFactory::defaults`] spec carries the key). Sweep-axis
    /// patches use this so e.g. an `entries` override applies to
    /// ChargeCache cells but leaves Baseline cells untouched (and
    /// memoizable).
    pub fn supports_param(spec: &MechanismSpec, key: &str) -> bool {
        with_registry(|r| {
            r.resolve(spec.name())
                .is_some_and(|f| f.defaults().get(key).is_some())
        })
    }

    /// `(name, label, defaults, description)` of every registered
    /// factory, in registration order (for `cc-sim --list-mechanisms`).
    pub fn list() -> Vec<(String, String, MechanismSpec, String)> {
        with_registry(|r| {
            r.factories()
                .iter()
                .map(|f| {
                    (
                        f.name().to_string(),
                        f.label().to_string(),
                        f.defaults(),
                        f.describe().to_string(),
                    )
                })
                .collect()
        })
    }
}

// ---------------------------------------------------------------------------
// Built-in factories
// ---------------------------------------------------------------------------

/// ChargeCache-family parameters shared by `chargecache` and `cc-nuat`.
fn cc_config_from(spec: &MechanismSpec, tck_ns: f64) -> Result<ChargeCacheConfig, String> {
    let entries = spec.usize_param("entries", 128)?;
    let ways = spec.usize_param("ways", 2)?;
    let duration_ms = spec.duration_ms_param("duration", 1.0)?;
    let shared = spec.bool_param("shared", false)?;
    let unlimited = spec.bool_param("unlimited", false)?;
    let invalidation = match spec.str_param("invalidation", "periodic")?.as_str() {
        "periodic" => InvalidationPolicy::Periodic,
        "exact" => InvalidationPolicy::Exact,
        other => {
            return Err(format!(
                "invalidation must be \"periodic\" or \"exact\", got {other:?}"
            ))
        }
    };
    if !(duration_ms.is_finite() && duration_ms > 0.0) {
        return Err("caching duration must be positive".into());
    }
    let cfg = ChargeCacheConfig {
        entries_per_core: entries,
        ways,
        duration_ms,
        reductions: CycleQuantized::for_duration_ms(duration_ms, tck_ns),
        invalidation,
        shared,
        unlimited,
    };
    cfg.validate()?;
    Ok(cfg)
}

const CC_KEYS: &[&str] = &[
    "entries",
    "ways",
    "duration",
    "shared",
    "unlimited",
    "invalidation",
];

fn cc_default_params(name: &str) -> MechanismSpec {
    MechanismSpec::new(name.to_string())
        .with("entries", ParamValue::Int(128))
        .with("ways", ParamValue::Int(2))
        .with("duration", ParamValue::DurationMs(1.0))
        .with("shared", ParamValue::Bool(false))
        .with("unlimited", ParamValue::Bool(false))
        .with("invalidation", ParamValue::Str("periodic".into()))
}

struct BaselineFactory;

impl MechanismFactory for BaselineFactory {
    fn name(&self) -> &str {
        "baseline"
    }
    fn label(&self) -> &str {
        "Baseline"
    }
    fn describe(&self) -> &str {
        "unmodified DDR3 specification timings"
    }
    fn validate(&self, spec: &MechanismSpec) -> Result<(), String> {
        spec.ensure_known_keys(&[])
    }
    fn build(
        &self,
        spec: &MechanismSpec,
        ctx: &MechanismContext,
    ) -> Result<Box<dyn LatencyMechanism>, String> {
        self.validate(spec)?;
        Ok(Box::new(Baseline::new(ctx.timing)))
    }
}

struct NuatFactory;

impl MechanismFactory for NuatFactory {
    fn name(&self) -> &str {
        "nuat"
    }
    fn label(&self) -> &str {
        "NUAT"
    }
    fn describe(&self) -> &str {
        "reduced timings for recently-refreshed rows (Shin et al., HPCA 2014; 5PB bins)"
    }
    fn validate(&self, spec: &MechanismSpec) -> Result<(), String> {
        spec.ensure_known_keys(&[])?;
        NuatConfig::paper_5pb().validate()
    }
    fn build(
        &self,
        spec: &MechanismSpec,
        ctx: &MechanismContext,
    ) -> Result<Box<dyn LatencyMechanism>, String> {
        self.validate(spec)?;
        // Bin reductions quantize against the *selected* clock, not the
        // paper's 1.25 ns default.
        Ok(Box::new(Nuat::new(
            NuatConfig::paper_5pb_for(ctx.timing.tck_ns),
            ctx.timing,
        )))
    }
}

struct ChargeCacheFactory;

impl MechanismFactory for ChargeCacheFactory {
    fn name(&self) -> &str {
        "chargecache"
    }
    fn aliases(&self) -> &[&str] {
        &["cc"]
    }
    fn label(&self) -> &str {
        "ChargeCache"
    }
    fn describe(&self) -> &str {
        "the paper's mechanism: HCRAC of recently-precharged rows + IIC/EC invalidation"
    }
    fn defaults(&self) -> MechanismSpec {
        cc_default_params(self.name())
    }
    fn validate(&self, spec: &MechanismSpec) -> Result<(), String> {
        spec.ensure_known_keys(CC_KEYS)?;
        cc_config_from(spec, 1.25).map(|_| ())
    }
    fn build(
        &self,
        spec: &MechanismSpec,
        ctx: &MechanismContext,
    ) -> Result<Box<dyn LatencyMechanism>, String> {
        spec.ensure_known_keys(CC_KEYS)?;
        let cfg = cc_config_from(spec, ctx.timing.tck_ns)?;
        if ctx.cores == 0 {
            return Err("need at least one core".into());
        }
        Ok(Box::new(ChargeCache::new(cfg, ctx.timing, ctx.cores)))
    }
}

struct CcNuatFactory;

impl MechanismFactory for CcNuatFactory {
    fn name(&self) -> &str {
        "cc-nuat"
    }
    fn aliases(&self) -> &[&str] {
        &["ccnuat"]
    }
    fn label(&self) -> &str {
        "ChargeCache + NUAT"
    }
    fn describe(&self) -> &str {
        "ChargeCache with NUAT refresh-age bins as the fallback on an HCRAC miss"
    }
    fn defaults(&self) -> MechanismSpec {
        cc_default_params(self.name())
    }
    fn validate(&self, spec: &MechanismSpec) -> Result<(), String> {
        spec.ensure_known_keys(CC_KEYS)?;
        cc_config_from(spec, 1.25)?;
        NuatConfig::paper_5pb().validate()
    }
    fn build(
        &self,
        spec: &MechanismSpec,
        ctx: &MechanismContext,
    ) -> Result<Box<dyn LatencyMechanism>, String> {
        spec.ensure_known_keys(CC_KEYS)?;
        let cfg = cc_config_from(spec, ctx.timing.tck_ns)?;
        if ctx.cores == 0 {
            return Err("need at least one core".into());
        }
        Ok(Box::new(CcNuat::new(
            cfg,
            NuatConfig::paper_5pb_for(ctx.timing.tck_ns),
            ctx.timing,
            ctx.cores,
        )))
    }
}

struct LlDramFactory;

impl MechanismFactory for LlDramFactory {
    fn name(&self) -> &str {
        "lldram"
    }
    fn aliases(&self) -> &[&str] {
        &["ll"]
    }
    fn label(&self) -> &str {
        "Low-Latency DRAM"
    }
    fn describe(&self) -> &str {
        "idealized device: every activation uses the ChargeCache hit timings"
    }
    fn defaults(&self) -> MechanismSpec {
        MechanismSpec::new(self.name().to_string()).with("duration", ParamValue::DurationMs(1.0))
    }
    fn validate(&self, spec: &MechanismSpec) -> Result<(), String> {
        spec.ensure_known_keys(&["duration"])?;
        let d = spec.duration_ms_param("duration", 1.0)?;
        if !(d.is_finite() && d > 0.0) {
            return Err("caching duration must be positive".into());
        }
        Ok(())
    }
    fn build(
        &self,
        spec: &MechanismSpec,
        ctx: &MechanismContext,
    ) -> Result<Box<dyn LatencyMechanism>, String> {
        self.validate(spec)?;
        let d = spec.duration_ms_param("duration", 1.0)?;
        let reductions = CycleQuantized::for_duration_ms(d, ctx.timing.tck_ns);
        Ok(Box::new(LlDram::new(reductions, ctx.timing)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(timing: &TimingParams) -> MechanismContext<'_> {
        MechanismContext { timing, cores: 2 }
    }

    #[test]
    fn display_roundtrips_hand_written_specs() {
        for src in [
            "baseline",
            "chargecache(entries=1024,duration=1ms)",
            "cc-nuat(entries=64,ways=4,shared=true)",
            "lldram(duration=2.5ms)",
            "custom_x(alpha=0.5,mode=fast,n=-3)",
        ] {
            let spec: MechanismSpec = src.parse().unwrap();
            assert_eq!(spec.to_string(), src);
            let again: MechanismSpec = spec.to_string().parse().unwrap();
            assert_eq!(again, spec);
        }
    }

    #[test]
    fn parse_tolerates_whitespace_and_normalizes() {
        let spec: MechanismSpec = "  chargecache ( entries = 256 , duration = 4ms )  "
            .parse()
            .unwrap();
        assert_eq!(spec.to_string(), "chargecache(entries=256,duration=4ms)");
        let bare: MechanismSpec = "nuat()".parse().unwrap();
        assert_eq!(bare.to_string(), "nuat");
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "",
            "cc(",
            "cc)x",
            "cc(entries)",
            "cc(entries=1,entries=2)",
            "cc(=1)",
            "1cc",
            "cc(k=)",
            "cc(k=1)junk",
        ] {
            assert!(bad.parse::<MechanismSpec>().is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn param_value_types_parse_distinctly() {
        assert_eq!(
            "true".parse::<ParamValue>().unwrap(),
            ParamValue::Bool(true)
        );
        assert_eq!("42".parse::<ParamValue>().unwrap(), ParamValue::Int(42));
        assert_eq!("2.5".parse::<ParamValue>().unwrap(), ParamValue::Float(2.5));
        assert_eq!(
            "4ms".parse::<ParamValue>().unwrap(),
            ParamValue::DurationMs(4.0)
        );
        assert_eq!(
            "exact".parse::<ParamValue>().unwrap(),
            ParamValue::Str("exact".into())
        );
        // Integer-valued floats still display with a decimal point, so the
        // type survives a round-trip.
        assert_eq!(ParamValue::Float(4.0).to_string(), "4.0");
        assert_eq!("4.0".parse::<ParamValue>().unwrap(), ParamValue::Float(4.0));
    }

    #[test]
    fn builtin_registry_builds_all_five() {
        let timing = TimingParams::ddr3_1600();
        let r = MechanismRegistry::builtin();
        for spec in MechanismSpec::paper_all() {
            r.validate(&spec).unwrap();
            let m = r.build(&spec, &ctx(&timing)).unwrap();
            assert_eq!(m.name(), spec.name());
        }
        assert_eq!(r.factories().len(), 5);
    }

    #[test]
    fn aliases_resolve_to_the_same_factory() {
        let r = MechanismRegistry::builtin();
        assert_eq!(r.resolve("cc").unwrap().name(), "chargecache");
        assert_eq!(r.resolve("ccnuat").unwrap().name(), "cc-nuat");
        assert_eq!(r.resolve("ll").unwrap().name(), "lldram");
        assert!(r.resolve("nope").is_none());
    }

    #[test]
    fn validation_rejects_bad_params_without_building() {
        let r = MechanismRegistry::builtin();
        // entries=0: no HCRAC capacity.
        let e = r
            .validate(&"chargecache(entries=0)".parse().unwrap())
            .unwrap_err();
        assert!(e.contains("entry"), "{e}");
        // 96/2 = 48 sets: not a power of two.
        let e = r
            .validate(&"chargecache(entries=96)".parse().unwrap())
            .unwrap_err();
        assert!(e.contains("power of two"), "{e}");
        // Zero caching duration.
        let e = r
            .validate(&"chargecache(duration=0ms)".parse().unwrap())
            .unwrap_err();
        assert!(e.contains("positive"), "{e}");
        // Unknown parameter key.
        let e = r
            .validate(&"baseline(entries=128)".parse().unwrap())
            .unwrap_err();
        assert!(e.contains("unknown parameter"), "{e}");
        // Unknown mechanism.
        let e = r.validate(&"warp-drive".parse().unwrap()).unwrap_err();
        assert!(e.contains("unknown mechanism"), "{e}");
    }

    #[test]
    fn chargecache_params_reach_the_mechanism() {
        let timing = TimingParams::ddr3_1600();
        let r = MechanismRegistry::builtin();
        let spec: MechanismSpec = "chargecache(duration=16ms)".parse().unwrap();
        let mut m = r.build(&spec, &ctx(&timing)).unwrap();
        // 16 ms reductions are weaker than the 1 ms pair (Table 2).
        let key = crate::RowKey::new(0, 0, 0, 1);
        m.on_precharge(0, 0, key);
        let t = m.on_activate(10, 0, key, u64::MAX);
        let paper = timing.act_timings().reduced_by(4, 8);
        assert!(t.trcd > paper.trcd);
        assert!(t.trcd < timing.trcd);
    }

    #[test]
    fn registering_a_custom_factory_replaces_and_extends() {
        struct Custom;
        impl MechanismFactory for Custom {
            fn name(&self) -> &str {
                "custom-test"
            }
            fn describe(&self) -> &str {
                "test double"
            }
            fn validate(&self, spec: &MechanismSpec) -> Result<(), String> {
                spec.ensure_known_keys(&["x"])
            }
            fn build(
                &self,
                spec: &MechanismSpec,
                ctx: &MechanismContext,
            ) -> Result<Box<dyn LatencyMechanism>, String> {
                self.validate(spec)?;
                Ok(Box::new(Baseline::new(ctx.timing)))
            }
        }
        let mut r = MechanismRegistry::builtin();
        r.register(Arc::new(Custom));
        assert_eq!(r.factories().len(), 6);
        r.validate(&"custom-test(x=1)".parse().unwrap()).unwrap();
        // Re-registration replaces, not duplicates.
        r.register(Arc::new(Custom));
        assert_eq!(r.factories().len(), 6);
    }

    /// Display → FromStr must be the identity on `spec`.
    fn assert_roundtrips<T>(spec: &T)
    where
        T: FromStr<Err = String> + fmt::Display + fmt::Debug + PartialEq,
    {
        let text = spec.to_string();
        let parsed: T = text
            .parse()
            .unwrap_or_else(|e| panic!("{text:?} failed to parse: {e}"));
        assert_eq!(&parsed, spec, "round-trip changed {text:?}");
        assert_eq!(parsed.to_string(), text);
    }

    #[test]
    fn seeded_random_specs_roundtrip_through_display() {
        // Dependency-free property test: a seeded xorshift generator
        // produces arbitrary valid specs of all three kinds, each with
        // values of the shapes its parser accepts; Display → FromStr must
        // be the identity on every one of them.
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let token = |r: &mut dyn FnMut() -> u64| {
            const HEAD: &[u8] = b"abcdefghijklmnopqrstuvwxyz_";
            const TAIL: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_.+-";
            let mut s = String::new();
            s.push(HEAD[(r() % HEAD.len() as u64) as usize] as char);
            for _ in 0..r() % 8 {
                s.push(TAIL[(r() % TAIL.len() as u64) as usize] as char);
            }
            s
        };
        for round in 0..1500 {
            let kind = round % 3;
            let name = token(&mut next);
            let mut params = Vec::new();
            let nparams = next() % 5;
            for i in 0..nparams {
                let value = match next() % 5 {
                    0 => ParamValue::Bool(next() % 2 == 0),
                    1 => ParamValue::Int(next() as i64 % 10_000),
                    2 => ParamValue::Float((next() % 1_000_000) as f64 / 128.0),
                    3 => ParamValue::DurationMs((next() % 10_000) as f64 / 16.0),
                    _ => {
                        let t = token(&mut next);
                        // The two boolean literals are the only tokens
                        // that re-parse as another type; skip them.
                        if t.parse::<ParamValue>() != Ok(ParamValue::Str(t.clone())) {
                            continue;
                        }
                        ParamValue::Str(t)
                    }
                };
                let accepted = match kind {
                    0 => true,
                    1 => matches!(value, ParamValue::Int(_) | ParamValue::Float(_)),
                    _ => matches!(
                        value,
                        ParamValue::Int(_) | ParamValue::Str(_) | ParamValue::Bool(_)
                    ),
                };
                if accepted {
                    // Unique keys: suffix with the index.
                    params.push((format!("{}{i}", token(&mut next)), value));
                }
            }
            match kind {
                0 => {
                    let mut spec = MechanismSpec::new(name);
                    params.into_iter().for_each(|(k, v)| spec.set(k, v));
                    assert_roundtrips(&spec);
                }
                1 => {
                    let mut spec = dram::TimingSpec::new(name);
                    params.into_iter().for_each(|(k, v)| spec.set(k, v));
                    assert_roundtrips(&spec);
                }
                _ => {
                    let mut spec = dram::FamilySpec::new(name);
                    params.into_iter().for_each(|(k, v)| spec.set(k, v));
                    assert_roundtrips(&spec);
                }
            }
        }
    }

    #[test]
    fn each_spec_kind_accepts_only_its_value_shapes() {
        use dram::family::{self, FamilyError, FamilySpec};
        use dram::TimingSpec;

        // Shapes a kind's resolver cannot use fail at parse.
        for bad in [
            "ddr3-1600(trcd=abc)",
            "ddr3-1600(trcd=1ms)",
            "ddr3-1600(trcd=true)",
        ] {
            assert!(bad.parse::<TimingSpec>().is_err(), "parsed {bad:?}");
        }
        assert!("ddr4(banks=1.5)".parse::<FamilySpec>().is_err());
        // A negative count is an int, so it may fail at either stage.
        assert!("ddr4(banks=-1)"
            .parse::<FamilySpec>()
            .map_or(true, |f| family::resolve(&f).is_err()));

        // Accepted shapes parse; the resolvers judge the values.
        let tck: TimingSpec = "ddr3-1600(tck=-1.0)".parse().unwrap();
        assert!(tck.resolve().is_err());
        let cc: MechanismSpec = "chargecache(duration=1ms)".parse().unwrap();
        assert_eq!(cc.get("duration"), Some(&ParamValue::DurationMs(1.0)));
        let hbm: FamilySpec = "hbm2(refresh=per-bank)".parse().unwrap();
        family::resolve(&hbm).unwrap();
        let ddr4: FamilySpec = "ddr4(refresh=true)".parse().unwrap();
        assert!(matches!(
            family::resolve(&ddr4),
            Err(FamilyError::BadValue { .. })
        ));
    }
}
