//! Error types for network construction and netlist parsing.

use crate::TransistorId;
use std::error::Error;
use std::fmt;

/// Errors produced while building a [`Network`](crate::Network) or
/// parsing the text netlist format.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetlistError {
    /// A node name was declared twice.
    DuplicateNode(String),
    /// A node name is empty or contains whitespace or `;` — the text
    /// formats could not write it back.
    InvalidNodeName(String),
    /// A transistor line referenced a node name never declared.
    UnknownNode {
        /// The offending name.
        name: String,
        /// 1-based source line of the reference.
        line: usize,
    },
    /// A line of the netlist file could not be parsed.
    Syntax {
        /// 1-based source line.
        line: usize,
        /// Human-readable description of the problem.
        message: String,
    },
    /// The network has no input nodes and so can never be driven.
    NoInputs,
    /// A transistor has gate, source and drain all on the same node.
    DegenerateTransistor(TransistorId),
    /// A storage node is connected to nothing.
    IsolatedNode(String),
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::DuplicateNode(n) => write!(f, "duplicate node name `{n}`"),
            NetlistError::InvalidNodeName(n) => write!(
                f,
                "invalid node name `{n}`: names are non-empty, without whitespace or `;`"
            ),
            NetlistError::UnknownNode { name, line } => {
                write!(f, "line {line}: unknown node `{name}`")
            }
            NetlistError::Syntax { line, message } => write!(f, "line {line}: {message}"),
            NetlistError::NoInputs => write!(f, "network has no input nodes"),
            NetlistError::DegenerateTransistor(t) => {
                write!(f, "transistor {t} has gate, source and drain on one node")
            }
            NetlistError::IsolatedNode(n) => {
                write!(f, "storage node `{n}` is connected to nothing")
            }
        }
    }
}

impl Error for NetlistError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase_start() {
        let errs: Vec<NetlistError> = vec![
            NetlistError::DuplicateNode("a".into()),
            NetlistError::InvalidNodeName("a;b".into()),
            NetlistError::UnknownNode {
                name: "b".into(),
                line: 3,
            },
            NetlistError::Syntax {
                line: 1,
                message: "bad token".into(),
            },
            NetlistError::NoInputs,
            NetlistError::DegenerateTransistor(TransistorId::from_index(0)),
            NetlistError::IsolatedNode("c".into()),
        ];
        for e in errs {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(!s.ends_with('.'));
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NetlistError>();
    }
}
