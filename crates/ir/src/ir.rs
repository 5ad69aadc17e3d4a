//! The HECATE intermediate representation (paper Fig. 4).
//!
//! A [`Function`] is a flat SSA arena: instruction `i` defines value `i`,
//! and operands always refer to earlier instructions, so index order is a
//! topological order. *Homomorphic* operations (`add`, `sub`, `mul`,
//! `negate`, `rotate`) mirror their plaintext counterparts; *opaque*
//! operations (`rescale`, `modswitch`, `upscale`, `downscale`, `encode`)
//! only manipulate the scale/level properties and never appear in input
//! programs — the compiler inserts them.

use std::fmt;

/// A value in the SSA arena (the index of its defining operation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ValueId(pub u32);

impl ValueId {
    /// The arena index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ValueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// Constant payload: a vector of reals, broadcast if shorter than the
/// function's vector size (a single element is a scalar splat).
#[derive(Debug, Clone, PartialEq)]
pub struct ConstData {
    /// The raw values.
    pub values: Vec<f64>,
}

impl ConstData {
    /// A scalar constant, broadcast across all slots.
    pub fn splat(v: f64) -> Self {
        ConstData { values: vec![v] }
    }

    /// A full vector constant.
    pub fn vector(values: Vec<f64>) -> Self {
        ConstData { values }
    }

    /// The value at slot `i` under broadcast semantics.
    pub fn at(&self, i: usize) -> f64 {
        if self.values.len() == 1 {
            self.values[0]
        } else {
            self.values.get(i).copied().unwrap_or(0.0)
        }
    }

    /// The largest magnitude in the payload (used for waterline selection).
    pub fn max_abs(&self) -> f64 {
        self.values.iter().fold(0.0, |m, v| m.max(v.abs()))
    }
}

/// One IR operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// An encrypted input (cipher type at the waterline scale, level 0).
    Input {
        /// Parameter name.
        name: String,
    },
    /// An unencoded constant (free type).
    Const {
        /// The payload.
        data: ConstData,
    },
    /// Encodes a free value into a plaintext at a given scale and level
    /// (PARS step (a)).
    Encode {
        /// The free-type operand.
        value: ValueId,
        /// Scale of the plaintext, log2 bits.
        scale_bits: f64,
        /// Level (RNS prefix) of the plaintext.
        level: usize,
    },
    /// Homomorphic addition.
    Add(ValueId, ValueId),
    /// Homomorphic subtraction.
    Sub(ValueId, ValueId),
    /// Homomorphic multiplication.
    Mul(ValueId, ValueId),
    /// Homomorphic negation.
    Negate(ValueId),
    /// Cyclic left rotation of the slot vector.
    Rotate {
        /// The cipher operand.
        value: ValueId,
        /// Left-rotation amount (slots).
        step: usize,
    },
    /// Divide the scale by the rescale factor `S_f`, level +1 (Table I).
    Rescale(ValueId),
    /// Keep the scale, level +1 (Table I).
    ModSwitch(ValueId),
    /// Raise the scale to `target_bits` by multiplying with a constant-one
    /// plaintext (syntactic sugar, Eq. 5).
    Upscale {
        /// The scaled operand.
        value: ValueId,
        /// Desired scale, log2 bits.
        target_bits: f64,
    },
    /// Reduce the scale to the waterline `S_w`, level +1 — HECATE's new
    /// operation (Table I, Eq. 6).
    Downscale(ValueId),
}

impl Op {
    /// The operand values of this operation, in order.
    pub fn operands(&self) -> Vec<ValueId> {
        match self {
            Op::Input { .. } | Op::Const { .. } => vec![],
            Op::Encode { value, .. }
            | Op::Negate(value)
            | Op::Rotate { value, .. }
            | Op::Rescale(value)
            | Op::ModSwitch(value)
            | Op::Upscale { value, .. }
            | Op::Downscale(value) => vec![*value],
            Op::Add(a, b) | Op::Sub(a, b) | Op::Mul(a, b) => vec![*a, *b],
        }
    }

    /// Whether this is one of the opaque scale-management operations
    /// (inserted by the compiler, absent from input programs).
    pub fn is_scale_management(&self) -> bool {
        matches!(
            self,
            Op::Encode { .. }
                | Op::Rescale(_)
                | Op::ModSwitch(_)
                | Op::Upscale { .. }
                | Op::Downscale(_)
        )
    }

    /// A short mnemonic for printing.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Op::Input { .. } => "input",
            Op::Const { .. } => "const",
            Op::Encode { .. } => "encode",
            Op::Add(..) => "add",
            Op::Sub(..) => "sub",
            Op::Mul(..) => "mul",
            Op::Negate(..) => "negate",
            Op::Rotate { .. } => "rotate",
            Op::Rescale(..) => "rescale",
            Op::ModSwitch(..) => "modswitch",
            Op::Upscale { .. } => "upscale",
            Op::Downscale(..) => "downscale",
        }
    }
}

/// Structural errors found by [`Function::verify_structure`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StructureError {
    /// An operand refers to a later (or same) instruction.
    ForwardReference {
        /// The offending instruction.
        at: ValueId,
        /// The operand that points forward.
        operand: ValueId,
    },
    /// An operand index is out of range.
    DanglingOperand {
        /// The offending instruction.
        at: ValueId,
        /// The out-of-range operand.
        operand: ValueId,
    },
    /// An output refers to a value that does not exist.
    DanglingOutput {
        /// The output name.
        name: String,
    },
    /// Two outputs share a name, so one would shadow the other.
    DuplicateOutput {
        /// The repeated output name.
        name: String,
    },
    /// The function has no outputs.
    NoOutputs,
}

impl fmt::Display for StructureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StructureError::ForwardReference { at, operand } => {
                write!(f, "instruction {at} uses not-yet-defined value {operand}")
            }
            StructureError::DanglingOperand { at, operand } => {
                write!(f, "instruction {at} uses out-of-range value {operand}")
            }
            StructureError::DanglingOutput { name } => {
                write!(f, "output '{name}' refers to a missing value")
            }
            StructureError::DuplicateOutput { name } => {
                write!(f, "output '{name}' is declared twice")
            }
            StructureError::NoOutputs => write!(f, "function has no outputs"),
        }
    }
}

impl std::error::Error for StructureError {}

/// An FHE function: a flat list of operations plus named outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Function name (used in printing and reports).
    pub name: String,
    /// Logical vector width of all values (≤ the backend's slot count).
    pub vec_size: usize,
    ops: Vec<Op>,
    outputs: Vec<(String, ValueId)>,
}

impl Function {
    /// Creates an empty function.
    pub fn new(name: impl Into<String>, vec_size: usize) -> Self {
        Function {
            name: name.into(),
            vec_size,
            ops: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// Appends an operation, returning its value.
    pub fn push(&mut self, op: Op) -> ValueId {
        let id = ValueId(self.ops.len() as u32);
        self.ops.push(op);
        id
    }

    /// Marks a value as a named output.
    pub fn mark_output(&mut self, name: impl Into<String>, v: ValueId) {
        self.outputs.push((name.into(), v));
    }

    /// The operations in definition (= topological) order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// The operation defining `v`.
    pub fn op(&self, v: ValueId) -> &Op {
        &self.ops[v.index()]
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if the function has no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The named outputs.
    pub fn outputs(&self) -> &[(String, ValueId)] {
        &self.outputs
    }

    /// All values over which this function iterates.
    pub fn value_ids(&self) -> impl Iterator<Item = ValueId> + '_ {
        (0..self.ops.len() as u32).map(ValueId)
    }

    /// Checks SSA well-formedness: operands defined before use, outputs in
    /// range, at least one output.
    ///
    /// # Errors
    /// Returns the first [`StructureError`] found.
    pub fn verify_structure(&self) -> Result<(), StructureError> {
        for (i, op) in self.ops.iter().enumerate() {
            let at = ValueId(i as u32);
            for operand in op.operands() {
                if operand.index() >= self.ops.len() {
                    return Err(StructureError::DanglingOperand { at, operand });
                }
                if operand.index() >= i {
                    return Err(StructureError::ForwardReference { at, operand });
                }
            }
        }
        if self.outputs.is_empty() {
            return Err(StructureError::NoOutputs);
        }
        for (k, (name, v)) in self.outputs.iter().enumerate() {
            if v.index() >= self.ops.len() {
                return Err(StructureError::DanglingOutput { name: name.clone() });
            }
            if self.outputs[..k].iter().any(|(earlier, _)| earlier == name) {
                return Err(StructureError::DuplicateOutput { name: name.clone() });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Function {
        let mut f = Function::new("t", 4);
        let x = f.push(Op::Input { name: "x".into() });
        let y = f.push(Op::Mul(x, x));
        f.mark_output("out", y);
        f
    }

    #[test]
    fn push_assigns_sequential_ids() {
        let f = tiny();
        assert_eq!(f.len(), 2);
        assert_eq!(f.op(ValueId(1)).operands(), vec![ValueId(0), ValueId(0)]);
    }

    #[test]
    fn structure_ok_for_wellformed() {
        assert_eq!(tiny().verify_structure(), Ok(()));
    }

    #[test]
    fn forward_reference_detected() {
        let mut f = Function::new("bad", 4);
        let x = f.push(Op::Negate(ValueId(1))); // refers to itself +1
        f.push(Op::Input { name: "x".into() });
        f.mark_output("o", x);
        assert!(matches!(
            f.verify_structure(),
            Err(StructureError::ForwardReference { .. })
        ));
    }

    #[test]
    fn dangling_operand_detected() {
        let mut f = Function::new("bad", 4);
        let x = f.push(Op::Negate(ValueId(99)));
        f.mark_output("o", x);
        assert!(matches!(
            f.verify_structure(),
            Err(StructureError::DanglingOperand { .. })
        ));
    }

    #[test]
    fn missing_outputs_detected() {
        let mut f = Function::new("bad", 4);
        f.push(Op::Input { name: "x".into() });
        assert_eq!(f.verify_structure(), Err(StructureError::NoOutputs));
        f.mark_output("ghost", ValueId(9));
        assert!(matches!(
            f.verify_structure(),
            Err(StructureError::DanglingOutput { .. })
        ));
    }

    #[test]
    fn duplicate_output_names_rejected() {
        let mut f = Function::new("t", 4);
        let x = f.push(Op::Input { name: "x".into() });
        let sq = f.push(Op::Mul(x, x));
        f.mark_output("y", sq);
        f.mark_output("z", x);
        assert_eq!(f.verify_structure(), Ok(()));
        f.mark_output("y", x);
        assert_eq!(
            f.verify_structure(),
            Err(StructureError::DuplicateOutput { name: "y".into() })
        );
    }

    #[test]
    fn const_broadcast_semantics() {
        let s = ConstData::splat(2.5);
        assert_eq!(s.at(0), 2.5);
        assert_eq!(s.at(7), 2.5);
        let v = ConstData::vector(vec![1.0, -3.0]);
        assert_eq!(v.at(1), -3.0);
        assert_eq!(v.at(2), 0.0);
        assert_eq!(v.max_abs(), 3.0);
    }

    #[test]
    fn scale_management_classification() {
        let x = ValueId(0);
        assert!(Op::Rescale(x).is_scale_management());
        assert!(Op::Downscale(x).is_scale_management());
        assert!(Op::ModSwitch(x).is_scale_management());
        assert!(Op::Upscale {
            value: x,
            target_bits: 40.0
        }
        .is_scale_management());
        assert!(!Op::Mul(x, x).is_scale_management());
        assert!(!Op::Rotate { value: x, step: 1 }.is_scale_management());
    }
}
