//! Values and value types of the PASCAL/R data model.
//!
//! PASCAL/R component types are the PASCAL scalar types: booleans, integer
//! subranges, enumerations (e.g. `statustype = (student, technician,
//! assistant, professor)`) and packed character arrays (fixed-length
//! strings).  In addition, the reproduction adds a *reference* value kind
//! (`@rel[key]`, see [`crate::refs::ElemRef`]) because the paper's
//! intermediate structures (single lists, indirect joins, reference
//! relations) are themselves PASCAL/R relations whose components are
//! references to selected variables.
//!
//! There are no NULLs and no floating point values in PASCAL/R; every value
//! is totally ordered within its own type, and comparing values of different
//! types is a (checked) type error.

use pascalr_sync::Arc;
use std::cmp::Ordering;
use std::fmt;

use crate::error::RelationError;
use crate::refs::ElemRef;

/// An enumeration type declaration, e.g.
/// `statustype = (student, technician, assistant, professor)`.
///
/// Enumeration values are ordered by their ordinal (declaration order), which
/// is what makes comparisons such as `c.clevel <= sophomore` meaningful.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EnumType {
    /// Type name, e.g. `statustype`.
    pub name: Arc<str>,
    /// Labels in declaration order; the ordinal of a label is its position.
    pub labels: Vec<Arc<str>>,
}

impl EnumType {
    /// Creates a new enumeration type from a name and its labels.
    pub fn new(
        name: impl Into<Arc<str>>,
        labels: impl IntoIterator<Item = impl Into<Arc<str>>>,
    ) -> Arc<Self> {
        Arc::new(EnumType {
            name: name.into(),
            labels: labels.into_iter().map(Into::into).collect(),
        })
    }

    /// Looks up the ordinal of a label.
    pub fn ordinal_of(&self, label: &str) -> Option<u32> {
        self.labels
            .iter()
            .position(|l| l.as_ref() == label)
            .map(|p| p as u32)
    }

    /// Returns the label at `ordinal`, if in range.
    pub fn label_of(&self, ordinal: u32) -> Option<&str> {
        self.labels
            .get(ordinal as usize)
            .map(std::convert::AsRef::as_ref)
    }

    /// Number of labels in the enumeration.
    pub fn cardinality(&self) -> usize {
        self.labels.len()
    }

    /// Constructs a value of this enumeration from a label.
    pub fn value(self: &Arc<Self>, label: &str) -> Result<Value, RelationError> {
        let ordinal = self
            .ordinal_of(label)
            .ok_or_else(|| RelationError::UnknownEnumLabel {
                enum_name: self.name.to_string(),
                label: label.to_string(),
            })?;
        Ok(Value::Enum(EnumValue {
            ty: Arc::clone(self),
            ordinal,
        }))
    }

    /// Constructs a value of this enumeration from an ordinal.
    pub fn value_at(self: &Arc<Self>, ordinal: u32) -> Result<Value, RelationError> {
        if (ordinal as usize) < self.labels.len() {
            Ok(Value::Enum(EnumValue {
                ty: Arc::clone(self),
                ordinal,
            }))
        } else {
            Err(RelationError::UnknownEnumLabel {
                enum_name: self.name.to_string(),
                label: format!("#{ordinal}"),
            })
        }
    }
}

/// A value of an enumeration type.
#[derive(Debug, Clone)]
pub struct EnumValue {
    /// The enumeration type this value belongs to.
    pub ty: Arc<EnumType>,
    /// The position of the label in the declaration.
    pub ordinal: u32,
}

impl EnumValue {
    /// The textual label of this value.
    pub fn label(&self) -> &str {
        self.ty
            .label_of(self.ordinal)
            .unwrap_or("<invalid enum ordinal>")
    }
}

impl PartialEq for EnumValue {
    fn eq(&self, other: &Self) -> bool {
        self.ty.name == other.ty.name && self.ordinal == other.ordinal
    }
}
impl Eq for EnumValue {}

impl std::hash::Hash for EnumValue {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.ty.name.hash(state);
        self.ordinal.hash(state);
    }
}

/// The kinds of types a relation component may have.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ValueType {
    /// PASCAL `boolean`.
    Bool,
    /// An integer subrange `lo..hi` (PASCAL subrange types such as `1..99`).
    /// The full `i64` range is used for unconstrained integers.
    Int {
        /// Lower bound (inclusive).
        min: i64,
        /// Upper bound (inclusive).
        max: i64,
    },
    /// A packed character array of at most `max_len` characters.
    Str {
        /// Maximum number of characters.
        max_len: usize,
    },
    /// An enumeration type.
    Enum(Arc<EnumType>),
    /// A reference (`@rel`) to an element of the named relation.
    Ref {
        /// Name of the referenced relation.
        relation: Arc<str>,
    },
}

impl ValueType {
    /// Unconstrained integer type.
    pub fn int() -> Self {
        ValueType::Int {
            min: i64::MIN,
            max: i64::MAX,
        }
    }

    /// Integer subrange type `lo..hi` (inclusive).
    pub fn subrange(min: i64, max: i64) -> Self {
        ValueType::Int { min, max }
    }

    /// String (packed array of char) type of the given maximum length.
    pub fn string(max_len: usize) -> Self {
        ValueType::Str { max_len }
    }

    /// Reference type to the named relation.
    pub fn reference(relation: impl Into<Arc<str>>) -> Self {
        ValueType::Ref {
            relation: relation.into(),
        }
    }

    /// A short, human readable type name used in schema displays.
    pub fn type_name(&self) -> String {
        match self {
            ValueType::Bool => "boolean".to_string(),
            ValueType::Int { min, max } => {
                if *min == i64::MIN && *max == i64::MAX {
                    "integer".to_string()
                } else {
                    format!("{min}..{max}")
                }
            }
            ValueType::Str { max_len } => format!("packed array [1..{max_len}] of char"),
            ValueType::Enum(e) => e.name.to_string(),
            ValueType::Ref { relation } => format!("@{relation}"),
        }
    }

    /// Checks whether `value` is a member of this type.
    pub fn admits(&self, value: &Value) -> bool {
        match (self, value) {
            (ValueType::Bool, Value::Bool(_)) => true,
            (ValueType::Int { min, max }, Value::Int(i)) => i >= min && i <= max,
            (ValueType::Str { max_len }, Value::Str(s)) => s.chars().count() <= *max_len,
            (ValueType::Enum(ty), Value::Enum(v)) => {
                ty.name == v.ty.name && (v.ordinal as usize) < ty.labels.len()
            }
            (ValueType::Ref { .. }, Value::Ref(_)) => true,
            _ => false,
        }
    }

    /// Returns the number of distinct values of this type if it is finite and
    /// small enough to be useful for selectivity estimation.
    pub fn domain_cardinality(&self) -> Option<u64> {
        match self {
            ValueType::Bool => Some(2),
            ValueType::Int { min, max } => {
                if *min == i64::MIN || *max == i64::MAX {
                    None
                } else {
                    Some((*max - *min + 1) as u64)
                }
            }
            ValueType::Enum(e) => Some(e.labels.len() as u64),
            _ => None,
        }
    }
}

/// A single PASCAL/R component value.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Value {
    /// Boolean value.
    Bool(bool),
    /// Integer (or subrange) value.
    Int(i64),
    /// Packed-array-of-char value.
    Str(String),
    /// Enumeration value.
    Enum(EnumValue),
    /// Reference to a selected variable (`@rel[key]`).
    Ref(ElemRef),
}

impl Value {
    /// Convenience constructor for string values.
    pub fn str(s: impl Into<String>) -> Self {
        Value::Str(s.into())
    }

    /// Convenience constructor for integer values.
    pub fn int(i: i64) -> Self {
        Value::Int(i)
    }

    /// Returns the boolean payload, if this is a boolean value.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the integer payload, if this is an integer value.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the string payload, if this is a string value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Returns the reference payload, if this is a reference value.
    pub fn as_ref_value(&self) -> Option<ElemRef> {
        match self {
            Value::Ref(r) => Some(*r),
            _ => None,
        }
    }

    /// Returns the enumeration payload, if this is an enumeration value.
    pub fn as_enum(&self) -> Option<&EnumValue> {
        match self {
            Value::Enum(e) => Some(e),
            _ => None,
        }
    }

    /// The name of the value's kind, used in error messages.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Value::Bool(_) => "boolean",
            Value::Int(_) => "integer",
            Value::Str(_) => "string",
            Value::Enum(_) => "enumeration",
            Value::Ref(_) => "reference",
        }
    }

    /// Compares two values of the same type, returning a checked ordering.
    ///
    /// Values of different kinds (or of different enumeration types) do not
    /// compare; attempting to do so is reported as a
    /// [`RelationError::IncomparableValues`].  This mirrors the strong typing
    /// of PASCAL/R where join terms are only well-formed over compatible
    /// component types.
    pub fn try_compare(&self, other: &Value) -> Result<Ordering, RelationError> {
        match (self, other) {
            (Value::Bool(a), Value::Bool(b)) => Ok(a.cmp(b)),
            (Value::Int(a), Value::Int(b)) => Ok(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Ok(a.cmp(b)),
            (Value::Enum(a), Value::Enum(b)) if a.ty.name == b.ty.name => {
                Ok(a.ordinal.cmp(&b.ordinal))
            }
            (Value::Ref(a), Value::Ref(b)) => Ok(a.cmp(b)),
            _ => Err(RelationError::IncomparableValues {
                left: self.kind_name().to_string(),
                right: other.kind_name().to_string(),
            }),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "'{s}'"),
            Value::Enum(e) => write!(f, "{}", e.label()),
            Value::Ref(r) => write!(f, "{r}"),
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}
impl From<ElemRef> for Value {
    fn from(r: ElemRef) -> Self {
        Value::Ref(r)
    }
}

/// The six comparison operators of PASCAL/R join terms:
/// `=`, `<>`, `<`, `<=`, `>`, `>=`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompareOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CompareOp {
    /// All six operators, useful for exhaustive testing.
    pub const ALL: [CompareOp; 6] = [
        CompareOp::Eq,
        CompareOp::Ne,
        CompareOp::Lt,
        CompareOp::Le,
        CompareOp::Gt,
        CompareOp::Ge,
    ];

    /// Evaluates `left OP right` with checked typing.
    pub fn eval(self, left: &Value, right: &Value) -> Result<bool, RelationError> {
        let ord = left.try_compare(right)?;
        Ok(self.holds(ord))
    }

    /// Whether the operator holds for an already-computed ordering of
    /// `left` versus `right`.
    pub fn holds(self, ord: Ordering) -> bool {
        match self {
            CompareOp::Eq => ord == Ordering::Equal,
            CompareOp::Ne => ord != Ordering::Equal,
            CompareOp::Lt => ord == Ordering::Less,
            CompareOp::Le => ord != Ordering::Greater,
            CompareOp::Gt => ord == Ordering::Greater,
            CompareOp::Ge => ord != Ordering::Less,
        }
    }

    /// The negated operator: `NOT (a OP b)  ==  a (OP.negate()) b`.
    pub fn negate(self) -> CompareOp {
        match self {
            CompareOp::Eq => CompareOp::Ne,
            CompareOp::Ne => CompareOp::Eq,
            CompareOp::Lt => CompareOp::Ge,
            CompareOp::Le => CompareOp::Gt,
            CompareOp::Gt => CompareOp::Le,
            CompareOp::Ge => CompareOp::Lt,
        }
    }

    /// The mirrored operator: `a OP b  ==  b (OP.flip()) a`.
    pub fn flip(self) -> CompareOp {
        match self {
            CompareOp::Eq => CompareOp::Eq,
            CompareOp::Ne => CompareOp::Ne,
            CompareOp::Lt => CompareOp::Gt,
            CompareOp::Le => CompareOp::Ge,
            CompareOp::Gt => CompareOp::Lt,
            CompareOp::Ge => CompareOp::Le,
        }
    }

    /// The PASCAL/R surface syntax of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            CompareOp::Eq => "=",
            CompareOp::Ne => "<>",
            CompareOp::Lt => "<",
            CompareOp::Le => "<=",
            CompareOp::Gt => ">",
            CompareOp::Ge => ">=",
        }
    }

    /// Parses a PASCAL/R comparison operator symbol.
    pub fn parse(sym: &str) -> Option<CompareOp> {
        Some(match sym {
            "=" => CompareOp::Eq,
            "<>" => CompareOp::Ne,
            "<" => CompareOp::Lt,
            "<=" => CompareOp::Le,
            ">" => CompareOp::Gt,
            ">=" => CompareOp::Ge,
            _ => return None,
        })
    }

    /// True for `<` and `<=` (the "at most" family used by the Strategy 4
    /// max/min value-list reduction).
    pub fn is_less_family(self) -> bool {
        matches!(self, CompareOp::Lt | CompareOp::Le)
    }

    /// True for `>` and `>=`.
    pub fn is_greater_family(self) -> bool {
        matches!(self, CompareOp::Gt | CompareOp::Ge)
    }
}

impl fmt::Display for CompareOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refs::{ElemRef, RelId, RowId};

    fn status_type() -> Arc<EnumType> {
        EnumType::new(
            "statustype",
            ["student", "technician", "assistant", "professor"],
        )
    }

    #[test]
    fn enum_ordinals_follow_declaration_order() {
        let ty = status_type();
        assert_eq!(ty.ordinal_of("student"), Some(0));
        assert_eq!(ty.ordinal_of("professor"), Some(3));
        assert_eq!(ty.ordinal_of("dean"), None);
        assert_eq!(ty.label_of(1), Some("technician"));
        assert_eq!(ty.label_of(9), None);
        assert_eq!(ty.cardinality(), 4);
    }

    #[test]
    fn enum_values_compare_by_ordinal() {
        let ty = status_type();
        let student = ty.value("student").unwrap();
        let prof = ty.value("professor").unwrap();
        assert_eq!(student.try_compare(&prof).unwrap(), Ordering::Less);
        assert!(CompareOp::Le.eval(&student, &prof).unwrap());
        assert!(!CompareOp::Eq.eval(&student, &prof).unwrap());
    }

    #[test]
    fn enum_values_of_different_types_do_not_compare() {
        let a = status_type().value("student").unwrap();
        let level = EnumType::new("leveltype", ["freshman", "sophomore", "junior", "senior"]);
        let b = level.value("freshman").unwrap();
        assert!(a.try_compare(&b).is_err());
    }

    #[test]
    fn unknown_enum_label_is_an_error() {
        let ty = status_type();
        assert!(ty.value("provost").is_err());
        assert!(ty.value_at(17).is_err());
        assert!(ty.value_at(3).is_ok());
    }

    #[test]
    fn integers_and_strings_compare_naturally() {
        assert!(CompareOp::Lt.eval(&Value::int(3), &Value::int(5)).unwrap());
        assert!(CompareOp::Ge.eval(&Value::int(5), &Value::int(5)).unwrap());
        assert!(CompareOp::Ne
            .eval(&Value::str("Highman"), &Value::str("Lowman"))
            .unwrap());
        assert!(CompareOp::Lt
            .eval(&Value::str("Abel"), &Value::str("Baker"))
            .unwrap());
    }

    #[test]
    fn cross_kind_comparison_is_a_type_error() {
        assert!(CompareOp::Eq
            .eval(&Value::int(3), &Value::str("3"))
            .is_err());
        assert!(Value::Bool(true).try_compare(&Value::int(1)).is_err());
    }

    #[test]
    fn negate_and_flip_are_involutions_and_consistent() {
        for op in CompareOp::ALL {
            assert_eq!(op.negate().negate(), op);
            assert_eq!(op.flip().flip(), op);
        }
        // a < b  <=>  b > a,   !(a < b) <=> a >= b
        let a = Value::int(1);
        let b = Value::int(2);
        for op in CompareOp::ALL {
            let direct = op.eval(&a, &b).unwrap();
            let flipped = op.flip().eval(&b, &a).unwrap();
            let negated = op.negate().eval(&a, &b).unwrap();
            assert_eq!(direct, flipped, "flip mismatch for {op}");
            assert_eq!(direct, !negated, "negate mismatch for {op}");
        }
    }

    #[test]
    fn compare_op_symbols_round_trip() {
        for op in CompareOp::ALL {
            assert_eq!(CompareOp::parse(op.symbol()), Some(op));
        }
        assert_eq!(CompareOp::parse("=="), None);
    }

    #[test]
    fn value_type_admits_checks_subranges_and_lengths() {
        let enr = ValueType::subrange(1, 99);
        assert!(enr.admits(&Value::int(20)));
        assert!(!enr.admits(&Value::int(0)));
        assert!(!enr.admits(&Value::int(100)));
        assert!(!enr.admits(&Value::str("20")));

        let name = ValueType::string(10);
        assert!(name.admits(&Value::str("Highman")));
        assert!(!name.admits(&Value::str("a name that is far too long")));

        let status = ValueType::Enum(status_type());
        assert!(status.admits(&status_type().value("professor").unwrap()));
        assert!(!status.admits(&Value::int(3)));
    }

    #[test]
    fn domain_cardinality_for_finite_types() {
        assert_eq!(ValueType::Bool.domain_cardinality(), Some(2));
        assert_eq!(ValueType::subrange(1, 99).domain_cardinality(), Some(99));
        assert_eq!(ValueType::int().domain_cardinality(), None);
        assert_eq!(ValueType::Enum(status_type()).domain_cardinality(), Some(4));
        assert_eq!(ValueType::string(10).domain_cardinality(), None);
    }

    #[test]
    fn reference_values_admit_and_display() {
        let r = ElemRef::new(RelId(2), RowId(7));
        let ty = ValueType::reference("employees");
        assert!(ty.admits(&Value::Ref(r)));
        assert_eq!(format!("{}", Value::Ref(r)), "@rel2[7]");
        assert_eq!(ty.type_name(), "@employees");
    }

    #[test]
    fn value_display_forms() {
        assert_eq!(Value::int(42).to_string(), "42");
        assert_eq!(Value::str("x").to_string(), "'x'");
        assert_eq!(Value::Bool(true).to_string(), "true");
        assert_eq!(
            status_type().value("assistant").unwrap().to_string(),
            "assistant"
        );
    }
}
