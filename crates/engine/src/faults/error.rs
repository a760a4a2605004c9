//! Typed fault-plan construction errors.
//!
//! `CompiledFaults` happily answers point queries for any interval table,
//! including ones that can never match (`until <= from`) or that double-count
//! a link; [`FaultPlan::validate`](crate::faults::FaultPlan::validate)
//! rejects such plans up front with one of these errors instead of letting
//! the sweep run with a silently inert (or doubled) fault.

use mesh_topo::{Coord, Link};

/// Why a [`FaultPlan`](crate::faults::FaultPlan) failed validation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultPlanError {
    /// An interval with `until <= from` can never be active.
    EmptyInterval {
        /// Fault class ("link-down", "lossy-link", "stall", "degrade").
        what: &'static str,
        from: u64,
        until: u64,
    },
    /// The same link appears twice with the identical interval in one fault
    /// class — almost always a copy-paste bug, and for degradations-like
    /// summed semantics it would double the effect silently.
    DuplicateLink {
        what: &'static str,
        link: Link,
        from: u64,
        until: Option<u64>,
    },
    /// A coordinate (or a link endpoint) lies outside the side-`n` grid.
    OutOfBounds {
        what: &'static str,
        node: Coord,
        n: u32,
    },
    /// A queue degradation of zero slots is a no-op.
    ZeroSlotDegrade { node: Coord },
}

impl core::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FaultPlanError::EmptyInterval { what, from, until } => {
                write!(f, "{what} fault has empty interval [{from}, {until})")
            }
            FaultPlanError::DuplicateLink {
                what,
                link,
                from,
                until,
            } => match until {
                Some(u) => write!(f, "duplicate {what} entry for {link} over [{from}, {u})"),
                None => write!(f, "duplicate {what} entry for {link} from step {from}"),
            },
            FaultPlanError::OutOfBounds { what, node, n } => {
                write!(f, "{what} fault at {node} is outside the {n}x{n} grid")
            }
            FaultPlanError::ZeroSlotDegrade { node } => {
                write!(f, "degrade of 0 slots at {node} is a no-op")
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh_topo::Dir;

    #[test]
    fn display_names_the_problem() {
        let e = FaultPlanError::EmptyInterval {
            what: "stall",
            from: 10,
            until: 10,
        };
        assert_eq!(e.to_string(), "stall fault has empty interval [10, 10)");
        let d = FaultPlanError::DuplicateLink {
            what: "lossy-link",
            link: Link::new(Coord::new(1, 2), Dir::East),
            from: 0,
            until: Some(5),
        };
        assert!(d.to_string().contains("duplicate lossy-link entry"));
    }

    #[test]
    fn is_a_std_error() {
        let e: Box<dyn std::error::Error> = Box::new(FaultPlanError::ZeroSlotDegrade {
            node: Coord::new(0, 0),
        });
        assert!(e.to_string().contains("no-op"));
    }
}
