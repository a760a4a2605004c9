//! The checkpoint reader as it was before it became one streamed pass:
//! three passes over the whole text, each a public `serde_json::from_str`
//! call. `restore_fuzz` holds `Snapshot::read_from` to its every answer.

use mesh_routing::engine::{Snapshot, SnapshotError, SNAPSHOT_FORMAT_VERSION};
use serde::Value;

/// The one field the second pass reads; every other key is skipped.
#[derive(serde::Deserialize)]
struct Header {
    format_version: Value,
}

/// A syntax check (`Parse`), then `format_version` alone (`Parse` or
/// `UnknownVersion`), then the typed read (`Corrupt`).
pub fn from_json(text: &str) -> Result<Snapshot, SnapshotError> {
    let parse = |e: serde::Error| SnapshotError::Parse(e.to_string());
    serde_json::from_str::<serde::IgnoredAny>(text).map_err(parse)?;
    let header: Header = serde_json::from_str(text).map_err(parse)?;
    let found = match header.format_version {
        Value::U64(found) => found,
        other => {
            let kind = other.kind();
            let e = format!("format_version must be an integer, found {kind}");
            return Err(SnapshotError::Parse(e));
        }
    };
    if found != u64::from(SNAPSHOT_FORMAT_VERSION) {
        let supported = SNAPSHOT_FORMAT_VERSION;
        return Err(SnapshotError::UnknownVersion { found, supported });
    }
    serde_json::from_str(text).map_err(|e| SnapshotError::Corrupt(e.to_string()))
}
