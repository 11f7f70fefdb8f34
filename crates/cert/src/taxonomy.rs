//! The constraint taxonomy: one enumerable vocabulary for every rule the
//! compile pipeline enforces and every obligation the certificate
//! verifier re-checks.
//!
//! The checker's 30 diagram rules (`C001`–`C030`) and the verifier's 16
//! certificate obligations (`V001`–`V016`) share this enum so the stable
//! ids live in exactly one place: every checker diagnostic names its rule
//! as a [`ConstraintKind`], and [`fn@crate::verify`] reports violations as
//! [`ConstraintKind`]s too. Tests can enumerate [`ConstraintKind::ALL`] to
//! assert coverage or id stability.

use std::fmt;

/// Which layer of the legality story a constraint belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConstraintCategory {
    /// Icon/resource binding: names resolve to real, compatible hardware.
    Binding,
    /// Hard capacity limits of the machine (units, taps, ports, buffers).
    Capacity,
    /// Dataflow well-formedness of the drawn pipeline.
    Dataflow,
    /// Control flow and convergence plumbing.
    Control,
    /// Internal consistency of the certificate itself (seal, digests,
    /// census redundancy, kernel-window bounds).
    Certificate,
    /// Legality of routed halo messages over the hypercube.
    Routing,
    /// Window-coverage proofs for overlap splits.
    Coverage,
}

impl fmt::Display for ConstraintCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ConstraintCategory::Binding => "binding",
            ConstraintCategory::Capacity => "capacity",
            ConstraintCategory::Dataflow => "dataflow",
            ConstraintCategory::Control => "control",
            ConstraintCategory::Certificate => "certificate",
            ConstraintCategory::Routing => "routing",
            ConstraintCategory::Coverage => "coverage",
        };
        f.write_str(s)
    }
}

/// Every constraint the pipeline knows, checker rules and verifier
/// obligations alike. The `C`-prefixed ids are the checker's historical
/// rule codes (stable since PR 1); the `V`-prefixed ids are the
/// certificate obligations this crate's verifier re-checks fail-closed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // each variant is documented by describe()
pub enum ConstraintKind {
    // Checker rules (diagram legality), C001..C030.
    UnboundIcon,
    DuplicateBinding,
    NoSuchResource,
    AlsOvercommit,
    SinkDrivenTwice,
    FanoutExceeded,
    PlaneContention,
    FuMultiPlane,
    CapabilityViolation,
    ArityMismatch,
    QueueDepthExceeded,
    SduTapCount,
    SduDelayRange,
    DmaMissing,
    DmaRange,
    UndeclaredVariable,
    StreamLenMismatch,
    SubsetViolation,
    CycleDetected,
    DeadOutput,
    NoStore,
    SelfLoop,
    CacheCapacity,
    DanglingControlRef,
    UnwrittenCondition,
    UnusedIcon,
    BindingKindMismatch,
    SduSourceKind,
    InactiveUnit,
    DanglingWire,
    // Verifier obligations (certificate legality), V001..V016.
    SealIntegrity,
    DocDigestBinding,
    ShapeDigestBinding,
    CertWellFormed,
    CensusTotals,
    FuCensusBound,
    SduTapBound,
    SduDelayBound,
    PlaneDmaBound,
    CacheDmaBound,
    FlopWindowBound,
    RouteEndpoints,
    RouteMinimal,
    RouteEcubeOrder,
    RouteContainment,
    CoverageTiling,
}

impl ConstraintKind {
    /// Every constraint, checker rules first, in id order.
    pub const ALL: [ConstraintKind; 46] = [
        ConstraintKind::UnboundIcon,
        ConstraintKind::DuplicateBinding,
        ConstraintKind::NoSuchResource,
        ConstraintKind::AlsOvercommit,
        ConstraintKind::SinkDrivenTwice,
        ConstraintKind::FanoutExceeded,
        ConstraintKind::PlaneContention,
        ConstraintKind::FuMultiPlane,
        ConstraintKind::CapabilityViolation,
        ConstraintKind::ArityMismatch,
        ConstraintKind::QueueDepthExceeded,
        ConstraintKind::SduTapCount,
        ConstraintKind::SduDelayRange,
        ConstraintKind::DmaMissing,
        ConstraintKind::DmaRange,
        ConstraintKind::UndeclaredVariable,
        ConstraintKind::StreamLenMismatch,
        ConstraintKind::SubsetViolation,
        ConstraintKind::CycleDetected,
        ConstraintKind::DeadOutput,
        ConstraintKind::NoStore,
        ConstraintKind::SelfLoop,
        ConstraintKind::CacheCapacity,
        ConstraintKind::DanglingControlRef,
        ConstraintKind::UnwrittenCondition,
        ConstraintKind::UnusedIcon,
        ConstraintKind::BindingKindMismatch,
        ConstraintKind::SduSourceKind,
        ConstraintKind::InactiveUnit,
        ConstraintKind::DanglingWire,
        ConstraintKind::SealIntegrity,
        ConstraintKind::DocDigestBinding,
        ConstraintKind::ShapeDigestBinding,
        ConstraintKind::CertWellFormed,
        ConstraintKind::CensusTotals,
        ConstraintKind::FuCensusBound,
        ConstraintKind::SduTapBound,
        ConstraintKind::SduDelayBound,
        ConstraintKind::PlaneDmaBound,
        ConstraintKind::CacheDmaBound,
        ConstraintKind::FlopWindowBound,
        ConstraintKind::RouteEndpoints,
        ConstraintKind::RouteMinimal,
        ConstraintKind::RouteEcubeOrder,
        ConstraintKind::RouteContainment,
        ConstraintKind::CoverageTiling,
    ];

    /// The stable short id (`"C005"`, `"V012"`) used in messages, tests
    /// and audit reports.
    pub fn id(&self) -> &'static str {
        use ConstraintKind::*;
        match self {
            UnboundIcon => "C001",
            DuplicateBinding => "C002",
            NoSuchResource => "C003",
            AlsOvercommit => "C004",
            SinkDrivenTwice => "C005",
            FanoutExceeded => "C006",
            PlaneContention => "C007",
            FuMultiPlane => "C008",
            CapabilityViolation => "C009",
            ArityMismatch => "C010",
            QueueDepthExceeded => "C011",
            SduTapCount => "C012",
            SduDelayRange => "C013",
            DmaMissing => "C014",
            DmaRange => "C015",
            UndeclaredVariable => "C016",
            StreamLenMismatch => "C017",
            SubsetViolation => "C018",
            CycleDetected => "C019",
            DeadOutput => "C020",
            NoStore => "C021",
            SelfLoop => "C022",
            CacheCapacity => "C023",
            DanglingControlRef => "C024",
            UnwrittenCondition => "C025",
            UnusedIcon => "C026",
            BindingKindMismatch => "C027",
            SduSourceKind => "C028",
            InactiveUnit => "C029",
            DanglingWire => "C030",
            SealIntegrity => "V001",
            DocDigestBinding => "V002",
            ShapeDigestBinding => "V003",
            CertWellFormed => "V004",
            CensusTotals => "V005",
            FuCensusBound => "V006",
            SduTapBound => "V007",
            SduDelayBound => "V008",
            PlaneDmaBound => "V009",
            CacheDmaBound => "V010",
            FlopWindowBound => "V011",
            RouteEndpoints => "V012",
            RouteMinimal => "V013",
            RouteEcubeOrder => "V014",
            RouteContainment => "V015",
            CoverageTiling => "V016",
        }
    }

    /// Which layer of the legality story the constraint belongs to.
    pub fn category(&self) -> ConstraintCategory {
        use ConstraintCategory as Cat;
        use ConstraintKind::*;
        match self {
            UnboundIcon | DuplicateBinding | NoSuchResource | CapabilityViolation
            | UndeclaredVariable | BindingKindMismatch => Cat::Binding,
            AlsOvercommit | FanoutExceeded | PlaneContention | FuMultiPlane
            | QueueDepthExceeded | SduTapCount | SduDelayRange | DmaRange | SubsetViolation
            | CacheCapacity | FuCensusBound | SduTapBound | SduDelayBound | PlaneDmaBound
            | CacheDmaBound => Cat::Capacity,
            SinkDrivenTwice | ArityMismatch | DmaMissing | StreamLenMismatch | CycleDetected
            | DeadOutput | NoStore | SelfLoop | UnusedIcon | SduSourceKind | InactiveUnit
            | DanglingWire => Cat::Dataflow,
            DanglingControlRef | UnwrittenCondition => Cat::Control,
            SealIntegrity | DocDigestBinding | ShapeDigestBinding | CertWellFormed
            | CensusTotals | FlopWindowBound => Cat::Certificate,
            RouteEndpoints | RouteMinimal | RouteEcubeOrder | RouteContainment => Cat::Routing,
            CoverageTiling => Cat::Coverage,
        }
    }

    /// One-line description of what the constraint requires.
    pub fn describe(&self) -> &'static str {
        use ConstraintKind::*;
        match self {
            UnboundIcon => "icon not yet bound to a physical resource",
            DuplicateBinding => "two icons bound to the same physical resource",
            NoSuchResource => "bound resource does not exist on this machine",
            AlsOvercommit => "more ALS icons of a kind than the machine has",
            SinkDrivenTwice => "two wires drive the same sink pad",
            FanoutExceeded => "a source pad drives more sinks than the switch fan-out allows",
            PlaneContention => "a memory plane's port used by conflicting streams",
            FuMultiPlane => "one functional unit touching more than one memory plane",
            CapabilityViolation => "operation not supported by the unit's capabilities",
            ArityMismatch => "wires on a unit's pads disagree with its operation's operands",
            QueueDepthExceeded => "register-file delay queue deeper than the register file",
            SduTapCount => "shift/delay tap index or count beyond the machine's taps",
            SduDelayRange => "shift/delay tap delay beyond the unit's buffer",
            DmaMissing => "memory/cache wire without DMA attributes",
            DmaRange => "DMA transfer runs outside the plane/cache/variable bounds",
            UndeclaredVariable => "DMA names a variable that is not declared",
            StreamLenMismatch => "stream length inconsistent with an explicit DMA count",
            SubsetViolation => "more units active in an ALS than the subset model allows",
            CycleDetected => "dataflow cycle through the switch",
            DeadOutput => "an enabled unit's output feeds nothing",
            NoStore => "the pipeline stores no result anywhere",
            SelfLoop => "a wire loops a unit's output directly to its own input",
            CacheCapacity => "cache DMA larger than one cache buffer",
            DanglingControlRef => "control flow references a pipeline that does not exist",
            UnwrittenCondition => "a convergence test reads a scalar nothing writes",
            UnusedIcon => "icon participates in no connection",
            BindingKindMismatch => "ALS icon bound to a physical ALS of a different kind",
            SduSourceKind => "shift/delay unit fed by something other than memory or cache",
            InactiveUnit => "a unit is wired or programmed on an inactive pad",
            DanglingWire => "a wire names an icon the pipeline does not hold",
            SealIntegrity => "certificate bytes must hash to the recorded seal",
            DocDigestBinding => "certificate must bind to the expected document digest",
            ShapeDigestBinding => "certificate must bind to the expected shape digest",
            CertWellFormed => "certificate structure must be internally coherent",
            CensusTotals => "census totals must equal the per-instruction sums",
            FuCensusBound => "active functional units must fit the machine",
            SduTapBound => "SDU taps must fit the machine's tap budget",
            SduDelayBound => "SDU tap delays must fit the unit buffer",
            PlaneDmaBound => "plane DMA spans must stay inside the plane",
            CacheDmaBound => "cache DMA spans must stay inside one cache buffer",
            FlopWindowBound => "claimed flops must fit the active units over the window",
            RouteEndpoints => "a route's path must start and end at its endpoints",
            RouteMinimal => "a route must take exactly the Hamming-distance hops",
            RouteEcubeOrder => "a route must correct dimensions lowest-bit-first (e-cube)",
            RouteContainment => "a leased job's route must stay inside its sub-cube",
            CoverageTiling => "overlap windows must tile the owned layers exactly once",
        }
    }

    /// Whether this constraint is a checker diagram rule (`C…`) rather
    /// than a verifier obligation (`V…`).
    pub fn is_checker_rule(&self) -> bool {
        self.id().starts_with('C')
    }
}

impl fmt::Display for ConstraintKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({}): {}", self.id(), self.category(), self.describe())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ids_are_unique_and_sequential() {
        let ids: Vec<&str> = ConstraintKind::ALL.iter().map(|k| k.id()).collect();
        let set: HashSet<&&str> = ids.iter().collect();
        assert_eq!(set.len(), ConstraintKind::ALL.len());
        let checker: Vec<&&str> = ids.iter().filter(|i| i.starts_with('C')).collect();
        let verifier: Vec<&&str> = ids.iter().filter(|i| i.starts_with('V')).collect();
        assert_eq!(checker.len(), 30, "the 30 checker rules");
        assert_eq!(verifier.len(), 16, "the 16 certificate obligations");
        for (n, id) in checker.iter().enumerate() {
            assert_eq!(***id, format!("C{:03}", n + 1));
        }
        for (n, id) in verifier.iter().enumerate() {
            assert_eq!(***id, format!("V{:03}", n + 1));
        }
    }

    #[test]
    fn every_kind_has_category_and_description() {
        for k in ConstraintKind::ALL {
            assert!(!k.describe().is_empty());
            let s = k.to_string();
            assert!(s.contains(k.id()), "{s}");
        }
        assert!(ConstraintKind::SinkDrivenTwice.is_checker_rule());
        assert!(!ConstraintKind::SealIntegrity.is_checker_rule());
        assert_eq!(ConstraintKind::RouteMinimal.category(), ConstraintCategory::Routing);
    }
}
