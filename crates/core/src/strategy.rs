//! How segment boundaries are placed.
//!
//! Every expensive property of the compiled pipeline — clique state space,
//! sparse nnz, compile time, and the sole approximation source
//! (cross-boundary correlation loss) — depends on where the segment
//! boundaries fall. [`SegmentationStrategy`] selects the planner: the
//! default [`TopoCover`](SegmentationStrategy::TopoCover) closes a segment
//! wherever the cone-clustered walk first exceeds the state budget;
//! [`BalancedCut`](SegmentationStrategy::BalancedCut) instead searches the
//! recorded checkpoints of the walk for the boundary that minimizes the
//! *cut* (lines the segment exports to later consumers — each one a
//! correlation the multi-BN model drops) subject to a treewidth-balance
//! floor, backtracking to it when the budget trips.
//!
//! The strategy participates in [`model_key`](crate::model_key) hashing
//! (see `pipeline::persist::write_options`), so compiled artifacts,
//! engine-cache entries, and on-disk files produced under different
//! strategies can never be confused for one another.

use std::fmt;
use std::str::FromStr;

/// How segment boundaries are placed during planning.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum SegmentationStrategy {
    /// Close a segment wherever the cone-clustered topological walk first
    /// exceeds the state budget — the paper's behavior and the default.
    #[default]
    TopoCover,
    /// Search the walk's checkpoints for the boundary minimizing the
    /// boundary-cut size (lines consumed by later segments) subject to a
    /// treewidth-balance floor, and backtrack to it when the budget trips.
    BalancedCut,
}

impl SegmentationStrategy {
    /// Stable lower-case name (`topo-cover`, `balanced-cut`).
    pub fn name(&self) -> &'static str {
        match self {
            SegmentationStrategy::TopoCover => "topo-cover",
            SegmentationStrategy::BalancedCut => "balanced-cut",
        }
    }
}

impl fmt::Display for SegmentationStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for SegmentationStrategy {
    type Err = String;

    fn from_str(s: &str) -> Result<SegmentationStrategy, String> {
        match s.to_ascii_lowercase().as_str() {
            "topo-cover" | "topo" | "cover" => Ok(SegmentationStrategy::TopoCover),
            "balanced-cut" | "balanced" | "search" => Ok(SegmentationStrategy::BalancedCut),
            other => Err(format!(
                "unknown segmentation strategy '{other}' (expected topo-cover or balanced-cut)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_prints() {
        assert_eq!(
            "balanced-cut".parse::<SegmentationStrategy>().unwrap(),
            SegmentationStrategy::BalancedCut
        );
        assert_eq!(
            "topo".parse::<SegmentationStrategy>().unwrap(),
            SegmentationStrategy::TopoCover
        );
        assert!("optimal".parse::<SegmentationStrategy>().is_err());
        assert_eq!(
            SegmentationStrategy::default(),
            SegmentationStrategy::TopoCover
        );
        assert_eq!(
            SegmentationStrategy::BalancedCut.to_string(),
            "balanced-cut"
        );
    }
}
