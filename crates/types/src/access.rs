//! Classification of memory accesses for the compatibility ruleset.

use crate::ids::DatatypeId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Reduction operator of an accumulate operation (`MPI_Op`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReduceOp {
    /// `MPI_SUM`
    Sum,
    /// `MPI_PROD`
    Prod,
    /// `MPI_MAX`
    Max,
    /// `MPI_MIN`
    Min,
    /// `MPI_REPLACE` (accumulate-with-replace, i.e. an atomic put)
    Replace,
}

impl fmt::Display for ReduceOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ReduceOp::Sum => "MPI_SUM",
            ReduceOp::Prod => "MPI_PROD",
            ReduceOp::Max => "MPI_MAX",
            ReduceOp::Min => "MPI_MIN",
            ReduceOp::Replace => "MPI_REPLACE",
        };
        f.write_str(s)
    }
}

/// The five access categories of the paper's Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessCategory {
    /// CPU load by the owning process.
    Load,
    /// CPU store by the owning process.
    Store,
    /// `MPI_Get` (reads the target window, writes the origin buffer).
    Get,
    /// `MPI_Put` (writes the target window, reads the origin buffer).
    Put,
    /// `MPI_Accumulate` (read-modify-write on the target window, reads the
    /// origin buffer).
    Acc,
}

impl AccessCategory {
    /// Whether the access *updates* the target-side memory it is classified
    /// against (window interpretation).
    pub fn is_window_update(self) -> bool {
        matches!(self, AccessCategory::Store | AccessCategory::Put | AccessCategory::Acc)
    }

    /// Whether the access only *reads* the target-side memory: the reader
    /// class of the detectors' interval sweeps. Table I permits every
    /// reader/reader combination (`BOTH`), so two readers are never even
    /// enumerated as a candidate pair; `compat`'s tests pin that.
    pub fn is_window_read(self) -> bool {
        !self.is_window_update()
    }
}

impl fmt::Display for AccessCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AccessCategory::Load => "load",
            AccessCategory::Store => "store",
            AccessCategory::Get => "MPI_Get",
            AccessCategory::Put => "MPI_Put",
            AccessCategory::Acc => "MPI_Accumulate",
        };
        f.write_str(s)
    }
}

/// A fully-classified access: the Table I category plus the accumulate
/// details needed for the "same operation and basic datatype" exception.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AccessClass {
    /// The Table I row/column.
    pub category: AccessCategory,
    /// For [`AccessCategory::Acc`]: the reduction operator.
    pub acc_op: Option<ReduceOp>,
    /// For [`AccessCategory::Acc`]: the basic datatype operated on.
    pub acc_dtype: Option<DatatypeId>,
}

impl AccessClass {
    /// A plain CPU load.
    pub const LOAD: AccessClass =
        AccessClass { category: AccessCategory::Load, acc_op: None, acc_dtype: None };
    /// A plain CPU store.
    pub const STORE: AccessClass =
        AccessClass { category: AccessCategory::Store, acc_op: None, acc_dtype: None };
    /// An `MPI_Get`.
    pub const GET: AccessClass =
        AccessClass { category: AccessCategory::Get, acc_op: None, acc_dtype: None };
    /// An `MPI_Put`.
    pub const PUT: AccessClass =
        AccessClass { category: AccessCategory::Put, acc_op: None, acc_dtype: None };

    /// An `MPI_Accumulate` with the given operator and basic datatype.
    pub fn acc(op: ReduceOp, dtype: DatatypeId) -> AccessClass {
        AccessClass { category: AccessCategory::Acc, acc_op: Some(op), acc_dtype: Some(dtype) }
    }
}

impl fmt::Display for AccessClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.category, self.acc_op) {
            (AccessCategory::Acc, Some(op)) => write!(f, "MPI_Accumulate({op})"),
            (c, _) => write!(f, "{c}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_update_classification() {
        assert!(!AccessCategory::Load.is_window_update());
        assert!(AccessCategory::Store.is_window_update());
        assert!(!AccessCategory::Get.is_window_update());
        assert!(AccessCategory::Put.is_window_update());
        assert!(AccessCategory::Acc.is_window_update());
        assert!(AccessCategory::Load.is_window_read());
        assert!(AccessCategory::Get.is_window_read());
        assert!(!AccessCategory::Acc.is_window_read(), "read-modify-write is a writer");
    }

    #[test]
    fn display() {
        assert_eq!(AccessClass::LOAD.to_string(), "load");
        assert_eq!(AccessClass::PUT.to_string(), "MPI_Put");
        assert_eq!(
            AccessClass::acc(ReduceOp::Sum, DatatypeId::INT).to_string(),
            "MPI_Accumulate(MPI_SUM)"
        );
    }
}
