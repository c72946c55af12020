//! Selection of box-consumption semantics.

use crate::cursor::{BatchOutcome, BoxOutcome, ExecCursor};
use cadapt_core::Blocks;

/// Which box semantics to run an execution under.
///
/// Both models agree up to constant factors (ablation E-model in
/// DESIGN.md); the theory of the paper is stated in terms of
/// [`ExecModel::Simplified`], while [`ExecModel::Capacity`] is the faithful
/// charging model used to sanity-check it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecModel {
    /// The §4 simplified caching model: each box performs exactly one
    /// action — complete the enclosing problem of its own size, or advance
    /// a larger problem's scan by its size.
    #[default]
    Simplified,
    /// The block-capacity charging model: a box of size x is a budget of x
    /// I/Os; fresh subtrees of size m complete for `cost_factor · m`, scan
    /// accesses cost 1 each.
    Capacity {
        /// The constant in "a problem of size m completes in a box of size
        /// Θ(m)". 1 is the natural choice.
        cost_factor: u64,
    },
}

impl ExecModel {
    /// The capacity model with the natural cost factor of 1.
    #[must_use]
    pub fn capacity() -> Self {
        ExecModel::Capacity { cost_factor: 1 }
    }

    /// Consume one box of size `s` from `cursor` under this model.
    pub fn advance(&self, cursor: &mut ExecCursor, s: Blocks) -> BoxOutcome {
        match *self {
            ExecModel::Simplified => cursor.advance_box_simplified(s),
            ExecModel::Capacity { cost_factor } => cursor.advance_box_capacity(s, cost_factor),
        }
    }

    /// Consume a run of `count` identical boxes of size `s` under this
    /// model (the run-length fast path; bit-identical to `count` calls of
    /// [`ExecModel::advance`]).
    pub fn advance_run(&self, cursor: &mut ExecCursor, s: Blocks, count: u64) -> BatchOutcome {
        match *self {
            ExecModel::Simplified => cursor.advance_boxes_simplified(s, count),
            ExecModel::Capacity { cost_factor } => {
                cursor.advance_boxes_capacity(s, cost_factor, count)
            }
        }
    }

    /// Short label for tables and logs.
    #[must_use]
    pub fn label(&self) -> String {
        match *self {
            ExecModel::Simplified => "simplified".to_string(),
            ExecModel::Capacity { cost_factor } => format!("capacity(x{cost_factor})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closed_form::ClosedForms;
    use crate::params::AbcParams;

    #[test]
    fn dispatch_matches_direct_calls() {
        let cf = ClosedForms::for_size(AbcParams::mm_scan(), 64).unwrap();
        let mut via_model = ExecCursor::new(cf.clone());
        let mut direct = ExecCursor::new(cf);
        let out_a = ExecModel::Simplified.advance(&mut via_model, 16);
        let out_b = direct.advance_box_simplified(16);
        assert_eq!(out_a, out_b);
        assert_eq!(via_model.fingerprint(), direct.fingerprint());
    }

    #[test]
    fn labels() {
        assert_eq!(ExecModel::Simplified.label(), "simplified");
        assert_eq!(ExecModel::capacity().label(), "capacity(x1)");
        assert_eq!(
            ExecModel::Capacity { cost_factor: 3 }.label(),
            "capacity(x3)"
        );
    }

    #[test]
    fn default_is_simplified() {
        assert_eq!(ExecModel::default(), ExecModel::Simplified);
    }
}
