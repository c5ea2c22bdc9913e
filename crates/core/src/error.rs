//! Error types for schema construction, validation and merging.
//!
//! Merging can fail in exactly the ways the paper enumerates (§4.2 end):
//! *incompatibility* — the combined specialization relation has a cycle, so
//! no common upper bound exists (Prop. 4.1) — and *inconsistency* — an
//! implicit class would identify classes the user has declared disjoint.
//! Both are reported with explicit witnesses so an interactive tool can
//! point at the offending assertions.

use std::fmt;

use crate::class::Class;
use crate::name::Label;

/// A cycle in a specialization relation, as a witness path
/// `c0 ⇒ c1 ⇒ … ⇒ c0` (the first class is repeated at the end).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleWitness {
    /// The classes along the cycle; `path.first() == path.last()`.
    pub path: Vec<Class>,
}

impl fmt::Display for CycleWitness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, class) in self.path.iter().enumerate() {
            if i > 0 {
                write!(f, " => ")?;
            }
            write!(f, "{class}")?;
        }
        Ok(())
    }
}

/// Errors raised while building or validating a single schema.
///
/// Marked `#[non_exhaustive]`: new failure modes may be added without a
/// breaking release, so downstream matches need a wildcard arm. Every
/// variant has a stable machine-readable [`code`](SchemaError::code)
/// surfaced in CLI output.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SchemaError {
    /// The declared specialization edges form a cycle, so `S` cannot be a
    /// partial order (antisymmetry fails).
    SpecializationCycle(CycleWitness),
    /// A proper schema was required but some `(class, label)` pair has no
    /// least arrow target (condition 1 of §2 fails). The offending minimal
    /// targets are listed.
    NoCanonicalClass {
        /// The arrow source.
        class: Class,
        /// The arrow label.
        label: Label,
        /// The (≥ 2) minimal targets none of which is least.
        minimal_targets: Vec<Class>,
    },
    /// An operation referred to a class the schema does not contain.
    UnknownClass(Class),
    /// A key constraint used a label that is not an arrow out of the class
    /// it is declared on (§5: "each aᵢ is the label of some arrow out of
    /// p").
    KeyLabelNotAnArrow {
        /// The class carrying the key.
        class: Class,
        /// The offending label.
        label: Label,
    },
    /// A key assignment violates `p ⇒ q  ⟹  SK(p) ⊇ SK(q)` (§5).
    KeyNotInherited {
        /// The specialization source (the subclass).
        sub: Class,
        /// The specialization target (the superclass).
        sup: Class,
    },
    /// A participation annotation was supplied for an arrow that does not
    /// exist in the schema.
    AnnotationOnMissingArrow {
        /// The arrow source.
        class: Class,
        /// The arrow label.
        label: Label,
        /// The arrow target.
        target: Class,
    },
}

impl SchemaError {
    /// The stable machine-readable code for this error (`E-SCHEMA-…`).
    /// Codes never change meaning across releases; scripts and CI should
    /// match on them rather than on message prose.
    pub fn code(&self) -> &'static str {
        match self {
            SchemaError::SpecializationCycle(_) => "E-SCHEMA-CYCLE",
            SchemaError::NoCanonicalClass { .. } => "E-SCHEMA-NO-CANONICAL",
            SchemaError::UnknownClass(_) => "E-SCHEMA-UNKNOWN-CLASS",
            SchemaError::KeyLabelNotAnArrow { .. } => "E-SCHEMA-KEY-LABEL",
            SchemaError::KeyNotInherited { .. } => "E-SCHEMA-KEY-INHERIT",
            SchemaError::AnnotationOnMissingArrow { .. } => "E-SCHEMA-ANNOTATION",
        }
    }
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::SpecializationCycle(witness) => {
                write!(f, "specialization relation is cyclic: {witness}")
            }
            SchemaError::NoCanonicalClass {
                class,
                label,
                minimal_targets,
            } => {
                write!(
                    f,
                    "no canonical class for the {label}-arrow of {class}: minimal targets are "
                )?;
                for (i, t) in minimal_targets.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{t}")?;
                }
                Ok(())
            }
            SchemaError::UnknownClass(class) => write!(f, "unknown class {class}"),
            SchemaError::KeyLabelNotAnArrow { class, label } => {
                write!(
                    f,
                    "key on {class} uses {label}, which is not an arrow out of {class}"
                )
            }
            SchemaError::KeyNotInherited { sub, sup } => write!(
                f,
                "key assignment violates inheritance: {sub} => {sup} but SK({sub}) does not \
                 contain SK({sup})"
            ),
            SchemaError::AnnotationOnMissingArrow {
                class,
                label,
                target,
            } => write!(
                f,
                "participation annotation on missing arrow {class} --{label}--> {target}"
            ),
        }
    }
}

impl std::error::Error for SchemaError {}

/// Errors raised while merging schemas.
///
/// Marked `#[non_exhaustive]`: new failure modes may be added without a
/// breaking release, so downstream matches need a wildcard arm. Every
/// variant has a stable machine-readable [`code`](MergeError::code)
/// surfaced in CLI output.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MergeError {
    /// The schemas are *incompatible*: the transitive closure of the union
    /// of their specialization relations is not antisymmetric (§4.1), so no
    /// upper bound — and hence no merge — exists.
    Incompatible(CycleWitness),
    /// The schemas are *inconsistent*: completion would introduce an
    /// implicit class identifying two classes declared unmergeable in the
    /// consistency relationship (§4.2).
    Inconsistent {
        /// The first of the clashing classes.
        left: Class,
        /// The second of the clashing classes.
        right: Class,
    },
    /// Participation constraints clash: one schema requires an arrow
    /// (constraint `1`) that another forbids (constraint `0`), so no upper
    /// bound exists in the annotated information order (§6).
    ParticipationConflict {
        /// The arrow source.
        class: Class,
        /// The arrow label.
        label: Label,
        /// The arrow target.
        target: Class,
    },
    /// A schema participating in the merge was itself invalid.
    Schema(SchemaError),
}

impl MergeError {
    /// The stable machine-readable code for this error (`E-MERGE-…`, or
    /// the wrapped [`SchemaError::code`] for [`MergeError::Schema`]).
    pub fn code(&self) -> &'static str {
        match self {
            MergeError::Incompatible(_) => "E-MERGE-INCOMPATIBLE",
            MergeError::Inconsistent { .. } => "E-MERGE-INCONSISTENT",
            MergeError::ParticipationConflict { .. } => "E-MERGE-PARTICIPATION",
            MergeError::Schema(err) => err.code(),
        }
    }
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::Incompatible(witness) => {
                write!(
                    f,
                    "schemas are incompatible (specialization cycle): {witness}"
                )
            }
            MergeError::Inconsistent { left, right } => write!(
                f,
                "schemas are inconsistent: merging would identify {left} with {right}"
            ),
            MergeError::ParticipationConflict {
                class,
                label,
                target,
            } => write!(
                f,
                "participation conflict on {class} --{label}--> {target}: \
                 required (1) in one schema, forbidden (0) in another"
            ),
            MergeError::Schema(err) => write!(f, "invalid input schema: {err}"),
        }
    }
}

impl std::error::Error for MergeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MergeError::Schema(err) => Some(err),
            _ => None,
        }
    }
}

impl From<SchemaError> for MergeError {
    fn from(err: SchemaError) -> Self {
        MergeError::Schema(err)
    }
}

impl MergeError {
    /// The error of a join: a specialization cycle discovered while
    /// joining means the inputs are incompatible (§4.1).
    pub(crate) fn from_join(err: SchemaError) -> Self {
        match err {
            SchemaError::SpecializationCycle(witness) => MergeError::Incompatible(witness),
            other => MergeError::Schema(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_witness_display() {
        let w = CycleWitness {
            path: vec![Class::named("A"), Class::named("B"), Class::named("A")],
        };
        assert_eq!(w.to_string(), "A => B => A");
    }

    #[test]
    fn schema_error_display() {
        let err = SchemaError::NoCanonicalClass {
            class: Class::named("C"),
            label: Label::new("a"),
            minimal_targets: vec![Class::named("B1"), Class::named("B2")],
        };
        assert_eq!(
            err.to_string(),
            "no canonical class for the a-arrow of C: minimal targets are B1, B2"
        );
    }

    #[test]
    fn merge_error_wraps_schema_error() {
        let err: MergeError = SchemaError::UnknownClass(Class::named("X")).into();
        assert!(err.to_string().contains("unknown class X"));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn participation_conflict_display() {
        let err = MergeError::ParticipationConflict {
            class: Class::named("Dog"),
            label: Label::new("owner"),
            target: Class::named("Person"),
        };
        assert!(err.to_string().contains("Dog --owner--> Person"));
    }
}
