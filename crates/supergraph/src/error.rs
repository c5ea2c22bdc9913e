//! Supergraph error taxonomy.

use schema_merge_core::MergeError;

/// Everything that can go wrong attaching, detaching or composing.
#[derive(Debug)]
#[non_exhaustive]
pub enum SupergraphError {
    /// Attach with a name that is already attached.
    DuplicateRegistry(String),
    /// Detach or lookup of a name that is not attached.
    UnknownRegistry(String),
    /// Registry names are namespace prefixes (`registry/member` origin
    /// labels, `registry/member` protocol routing), so they must be
    /// non-empty, slash-free, whitespace-free tokens.
    InvalidName(String),
    /// The cross-registry composition itself failed — the member
    /// registries are individually consistent but their union is not
    /// (e.g. a specialization cycle spanning registries).
    Compose(MergeError),
}

impl SupergraphError {
    /// The stable machine-readable code (`E-SG-…`), used by the protocol
    /// daemon's `ERR` lines and the CLI's `error[…]` prefix.
    pub fn code(&self) -> &'static str {
        match self {
            SupergraphError::DuplicateRegistry(_) => "E-SG-DUPLICATE",
            SupergraphError::UnknownRegistry(_) => "E-SG-UNKNOWN",
            SupergraphError::InvalidName(_) => "E-SG-NAME",
            SupergraphError::Compose(_) => "E-SG-COMPOSE",
        }
    }
}

impl std::fmt::Display for SupergraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SupergraphError::DuplicateRegistry(name) => {
                write!(f, "registry `{name}` is already attached")
            }
            SupergraphError::UnknownRegistry(name) => {
                write!(f, "no registry `{name}` is attached")
            }
            SupergraphError::InvalidName(name) => write!(
                f,
                "invalid registry name `{name}`: names are non-empty tokens \
                 without `/` or whitespace"
            ),
            SupergraphError::Compose(cause) => {
                write!(f, "composition failed: {cause}")
            }
        }
    }
}

impl std::error::Error for SupergraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SupergraphError::Compose(cause) => Some(cause),
            _ => None,
        }
    }
}

impl From<MergeError> for SupergraphError {
    fn from(cause: MergeError) -> Self {
        SupergraphError::Compose(cause)
    }
}
