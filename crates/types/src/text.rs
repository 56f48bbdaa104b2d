//! A shared immutable string behind one thin pointer.
//!
//! `Arc<str>` is a pointer and a length: sixteen bytes, which made
//! [`Value`](crate::Value) twenty-four although every other payload it
//! carries is eight. A stored row is mostly `Value`s — on a write-heavy
//! workload the tables grow by rows of integers, floats and timestamps that
//! each paid for the one string variant — so the length moves into the
//! allocation: [`Text`] is eight bytes, `Value` sixteen, and a string is
//! still one allocation (reference count, length, bytes).
//!
//! This is the one place the workspace uses `unsafe`: safe Rust has no thin
//! pointer to an unsized value. Everything that touches the raw allocation
//! is in this file, behind a type whose only state is that pointer.

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::ptr::NonNull;
use std::sync::atomic::{self, AtomicUsize};
use std::sync::Arc;

/// What an allocation starts with; the string's bytes follow it directly.
#[repr(C)]
struct Header {
    /// Handles pointing at this allocation.
    refs: AtomicUsize,
    /// Length of the string in bytes.
    len: usize,
}

/// A reference-counted immutable string: `Arc<str>` in eight bytes.
/// Cloning bumps a count; the bytes are freed with the last handle.
pub struct Text {
    /// Start of an allocation laid out by [`Text::layout`]: an initialized
    /// [`Header`], then `len` bytes of valid UTF-8. It stays allocated while
    /// `refs > 0`, and this handle is counted in `refs`.
    ptr: NonNull<Header>,
}

impl Text {
    /// The layout of an allocation holding a string of `len` bytes.
    fn layout(len: usize) -> Layout {
        let size = std::mem::size_of::<Header>()
            .checked_add(len)
            .expect("string length fits an allocation");
        Layout::from_size_align(size, std::mem::align_of::<Header>())
            .expect("string length fits an allocation")
    }

    pub fn new(s: &str) -> Text {
        let layout = Text::layout(s.len());
        // SAFETY: `layout` has a non-zero size (it includes the header).
        let raw = unsafe { alloc(layout) };
        let Some(ptr) = NonNull::new(raw.cast::<Header>()) else {
            handle_alloc_error(layout)
        };
        // SAFETY: `ptr` is a fresh allocation of `layout`, aligned for
        // `Header` and large enough for it plus `s.len()` bytes, so the
        // header write and the copy to just past it are in bounds; the
        // source is a live `&str` and cannot overlap memory just allocated.
        unsafe {
            ptr.as_ptr().write(Header {
                refs: AtomicUsize::new(1),
                len: s.len(),
            });
            std::ptr::copy_nonoverlapping(s.as_ptr(), ptr.as_ptr().add(1).cast::<u8>(), s.len());
        }
        Text { ptr }
    }

    fn header(&self) -> &Header {
        // SAFETY: the allocation outlives every handle (see `ptr`), its
        // header was initialized by `new`, and after that only `refs` — an
        // atomic — is ever written.
        unsafe { self.ptr.as_ref() }
    }

    pub fn as_str(&self) -> &str {
        let len = self.header().len;
        // SAFETY: `len` bytes follow the header inside the allocation; `new`
        // copied them from a `&str`, so they are initialized, valid UTF-8,
        // and never written again. The borrow ends with `&self`, while the
        // allocation lives at least as long as this handle.
        unsafe {
            let bytes = std::slice::from_raw_parts(self.ptr.as_ptr().add(1).cast::<u8>(), len);
            std::str::from_utf8_unchecked(bytes)
        }
    }
}

impl Clone for Text {
    fn clone(&self) -> Text {
        // Relaxed, as in `Arc`: the new handle is derived from a live one,
        // so the count cannot reach zero concurrently.
        let before = self.header().refs.fetch_add(1, atomic::Ordering::Relaxed);
        // A count that overflows would free the string under live handles.
        assert!(before < usize::MAX / 2, "Text reference count overflow");
        Text { ptr: self.ptr }
    }
}

impl Drop for Text {
    fn drop(&mut self) {
        // Release, then Acquire on the last one (as in `Arc`): every other
        // handle's reads happen before the memory is freed.
        if self.header().refs.fetch_sub(1, atomic::Ordering::Release) != 1 {
            return;
        }
        atomic::fence(atomic::Ordering::Acquire);
        let layout = Text::layout(self.header().len);
        // SAFETY: this was the last handle, so nothing refers to the
        // allocation any more; it was allocated by `new` with this layout
        // (`len` never changes).
        unsafe { dealloc(self.ptr.as_ptr().cast::<u8>(), layout) }
    }
}

// SAFETY: a `Text` is a shared, immutable string with an atomic reference
// count — exactly `Arc<str>`, which is `Send + Sync`: the bytes and `len`
// are never written after construction, and `refs` is only touched
// atomically, with the orderings `Arc` uses.
unsafe impl Send for Text {}
// SAFETY: as above; `&Text` only allows reads and `clone`.
unsafe impl Sync for Text {}

impl Deref for Text {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for Text {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl Borrow<str> for Text {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for Text {
    fn from(s: &str) -> Text {
        Text::new(s)
    }
}

impl From<String> for Text {
    fn from(s: String) -> Text {
        Text::new(&s)
    }
}

impl From<&String> for Text {
    fn from(s: &String) -> Text {
        Text::new(s)
    }
}

impl From<Arc<str>> for Text {
    fn from(s: Arc<str>) -> Text {
        Text::new(&s)
    }
}

// Compared, ordered, hashed and printed as the `str` it holds.

impl PartialEq for Text {
    fn eq(&self, other: &Text) -> bool {
        self.ptr == other.ptr || self.as_str() == other.as_str()
    }
}

impl Eq for Text {}

impl PartialOrd for Text {
    fn partial_cmp(&self, other: &Text) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Text {
    fn cmp(&self, other: &Text) -> Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl Hash for Text {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state)
    }
}

impl fmt::Debug for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn refs(t: &Text) -> usize {
        t.header().refs.load(atomic::Ordering::SeqCst)
    }

    #[test]
    fn is_one_pointer_and_reads_back() {
        assert_eq!(std::mem::size_of::<Text>(), std::mem::size_of::<usize>());
        assert_eq!(
            std::mem::size_of::<Option<Text>>(),
            std::mem::size_of::<usize>()
        );
        for s in ["", "a", "PENDING", "naïve ☕ 文字", &"x".repeat(10_000)] {
            let t = Text::new(s);
            assert_eq!(t.as_str(), s);
            assert_eq!(t.len(), s.len());
            assert_eq!(format!("{t}"), s);
            assert_eq!(format!("{t:?}"), format!("{s:?}"));
        }
    }

    #[test]
    fn clones_share_and_the_last_drop_frees() {
        let a = Text::new("shared");
        let b = a.clone();
        let c = b.clone();
        assert_eq!(refs(&a), 3);
        assert!(std::ptr::eq(a.as_str(), c.as_str()), "one allocation");
        drop(b);
        assert_eq!(refs(&a), 2);
        drop(a);
        assert_eq!((refs(&c), c.as_str()), (1, "shared"));
    }

    #[test]
    fn compares_orders_and_hashes_as_str() {
        let hash = |v: &dyn Fn(&mut DefaultHasher)| {
            let mut h = DefaultHasher::new();
            v(&mut h);
            h.finish()
        };
        let words = ["", "a", "ab", "b", "B", "é"];
        for x in words {
            for y in words {
                let (tx, ty) = (Text::new(x), Text::new(y));
                assert_eq!(tx == ty, x == y);
                assert_eq!(tx.cmp(&ty), x.cmp(y));
            }
            let t = Text::new(x);
            assert_eq!(hash(&|h| t.hash(h)), hash(&|h| x.hash(h)));
        }
    }

    #[test]
    fn handles_cross_threads() {
        let t = Text::new("passed around");
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let mine = t.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        assert_eq!(mine.clone().as_str(), "passed around");
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        assert_eq!(refs(&t), 1, "every clone was dropped exactly once");
    }
}
