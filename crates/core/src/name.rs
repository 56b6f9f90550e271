//! Promise names, rendered to text only when read.
//!
//! A promise's name exists for diagnostics — omitted-set and deadlock
//! reports, `Debug`, the event log — and almost never gets read.  A
//! [`Name`] therefore stores what it takes to render the text, not the
//! text: a plain name ([`Promise::with_name`](crate::Promise::with_name))
//! is the caller's string in an `Arc<str>`, and a channel cell's name is
//! the channel's shared label plus the cell index, rendered as
//! `"label[index]"`.  Naming a channel cell therefore allocates nothing,
//! and cloning any name is one reference-count increment.

use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// The `index` of a plain (un-indexed) name.
const PLAIN: u64 = u64::MAX;

/// A promise's captured name (see the [module docs](self)).
///
/// Displays as the name's text: `label` for a plain name, `label[index]`
/// for an indexed one.
#[derive(Clone)]
pub struct Name {
    label: Arc<str>,
    /// The cell index rendered after the label, or [`PLAIN`].
    index: u64,
}

impl Name {
    /// A plain name: exactly `text`.
    pub(crate) fn plain(text: &str) -> Name {
        Name {
            label: Arc::from(text),
            index: PLAIN,
        }
    }

    /// An indexed name, rendered `"label[index]"`.
    pub(crate) fn indexed(label: &Arc<str>, index: u64) -> Name {
        assert_ne!(index, PLAIN, "name index out of range");
        Name {
            label: Arc::clone(label),
            index,
        }
    }

    /// The name's text; borrowed for a plain name, rendered for an indexed
    /// one.
    pub fn text(&self) -> Cow<'_, str> {
        if self.index == PLAIN {
            Cow::Borrowed(&self.label)
        } else {
            Cow::Owned(self.to_string())
        }
    }

    /// The name's text as a shared string; a plain name shares its
    /// allocation, an indexed one renders into a new one.
    pub fn to_arc(&self) -> Arc<str> {
        if self.index == PLAIN {
            Arc::clone(&self.label)
        } else {
            Arc::from(self.to_string())
        }
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label)?;
        if self.index != PLAIN {
            write!(f, "[{}]", self.index)?;
        }
        Ok(())
    }
}

impl fmt::Debug for Name {
    /// Debug-formats like the name's text as a `str`, quotes included.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.text(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_and_indexed_names_render_their_text() {
        let plain = Name::plain("result");
        assert_eq!(plain.text(), "result");
        assert!(matches!(plain.text(), Cow::Borrowed(_)));
        assert_eq!(&*plain.to_arc(), "result");

        let label: Arc<str> = Arc::from("ch");
        let cell = Name::indexed(&label, 7);
        assert_eq!(cell.text(), "ch[7]");
        assert_eq!(&*cell.to_arc(), "ch[7]");
        assert_eq!(cell.to_string(), "ch[7]");
        assert_eq!(format!("{:?}", Some(cell)), "Some(\"ch[7]\")");
    }
}
