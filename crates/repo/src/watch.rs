//! Change events for a local [`Repository`](crate::Repository): one
//! inotify instance with a watch on every directory a walk visits.
//!
//! The watch never says *what* changed — a walk still decides that. It
//! only answers "has anything happened since the last walk the registry
//! reflects?", which is what the warehouse's per-query auto-refresh asks:
//! a quiet repository then costs one `read(2)` of an empty queue instead
//! of a directory walk with a `stat` per file.
//!
//! Every event is counted, whatever it names; an overflowed queue, a
//! failed read and a failed arm count as changes, and a walk that could
//! not arm every directory (or met a symlink or a multiply linked file,
//! whose changes raise no event here) leaves the watch disarmed until a
//! later walk arms it. Not covered at all: writes through a shared
//! mapping (`mmap`) and writes by another host to a network or FUSE
//! filesystem raise no event, so only an explicit refresh picks them up.

use std::fs::File;
use std::io::Read;
use std::path::Path;
use std::sync::Mutex;

/// Event bookkeeping, behind one lock: draining the queue and advancing
/// `seen` must be one step, or a prober that finds the queue empty could
/// miss an event another prober has read but not yet counted.
#[derive(Debug, Default)]
struct Counts {
    /// Non-empty reads of the queue so far (any event, an overflow, a
    /// failed read).
    seen: u64,
    /// `seen` at the start of the last walk the registry reflects; `None`
    /// before the first such walk, or when it could not arm the watch.
    synced: Option<u64>,
}

/// An inotify instance, or nothing where there is none (not Linux, or the
/// instance limit is reached): then every probe asks for a walk.
#[derive(Debug)]
pub(crate) struct Watch {
    fd: Option<File>,
    counts: Mutex<Counts>,
}

impl Watch {
    pub(crate) fn new() -> Watch {
        Watch {
            fd: sys::init(),
            counts: Mutex::default(),
        }
    }

    fn drained(&self) -> std::sync::MutexGuard<'_, Counts> {
        let mut counts = self.counts.lock().expect("watch counts poisoned");
        if let Some(mut fd) = self.fd.as_ref() {
            // Room for many events; one read returns whole events only.
            let mut buf = [0u8; 4096];
            loop {
                match fd.read(&mut buf) {
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Ok(0) => break,
                    Ok(_) => counts.seen += 1,
                    // Whatever failed, a walk finds out what changed.
                    Err(_) => {
                        counts.seen += 1;
                        break;
                    }
                }
            }
        }
        counts
    }

    /// Start a walk: the mark its report carries, or `None` when there is
    /// no instance to arm.
    pub(crate) fn begin_walk(&self) -> Option<u64> {
        self.fd.as_ref()?;
        Some(self.drained().seen)
    }

    /// Arm `dir` (before it is read, so an entry created after the read
    /// raises an event). False when the kernel refused.
    pub(crate) fn arm(&self, dir: &Path) -> bool {
        self.fd.as_ref().is_some_and(|fd| sys::add_watch(fd, dir))
    }

    /// The registry now reflects the walk that returned `mark`.
    pub(crate) fn settle(&self, mark: Option<u64>) {
        self.counts.lock().expect("watch counts poisoned").synced = mark;
    }

    /// True when no event arrived since the start of the last walk the
    /// registry reflects, and that walk armed the watch.
    pub(crate) fn quiet(&self) -> bool {
        let counts = self.drained();
        counts.synced == Some(counts.seen)
    }
}

impl Drop for Watch {
    fn drop(&mut self) {
        // Closing an instance that holds watches waits out a kernel RCU
        // grace period (milliseconds of wall time, no CPU). A short-lived
        // thread pays it instead of whoever drops the repository; it is
        // detached on purpose, since closing cannot fail in a way anyone
        // could act on. If no thread can be spawned, the closure — and
        // with it the fd — is dropped here.
        if let Some(fd) = self.fd.take() {
            let _ = std::thread::Builder::new()
                .name("inotify-close".into())
                .spawn(move || drop(fd));
        }
    }
}

#[cfg(all(
    target_os = "linux",
    any(
        target_arch = "x86_64",
        target_arch = "x86",
        target_arch = "aarch64",
        target_arch = "arm",
        target_arch = "riscv64"
    )
))]
mod sys {
    use std::ffi::{c_char, c_int, CString};
    use std::fs::File;
    use std::os::fd::{AsRawFd, FromRawFd};
    use std::os::unix::ffi::OsStrExt;
    use std::path::Path;

    // `O_NONBLOCK` / `O_CLOEXEC` on the architectures this module is
    // built for (the generic Linux ABI values).
    const IN_NONBLOCK: c_int = 0o4000;
    const IN_CLOEXEC: c_int = 0o2000000;

    const IN_MODIFY: u32 = 0x2;
    const IN_ATTRIB: u32 = 0x4;
    const IN_MOVED_FROM: u32 = 0x40;
    const IN_MOVED_TO: u32 = 0x80;
    const IN_CREATE: u32 = 0x100;
    const IN_DELETE: u32 = 0x200;
    const IN_DELETE_SELF: u32 = 0x400;
    const IN_MOVE_SELF: u32 = 0x800;
    const IN_ONLYDIR: u32 = 0x0100_0000;
    /// Everything that can change a file's presence, size or mtime;
    /// reads and opens are left out.
    const MASK: u32 = IN_MODIFY
        | IN_ATTRIB
        | IN_MOVED_FROM
        | IN_MOVED_TO
        | IN_CREATE
        | IN_DELETE
        | IN_DELETE_SELF
        | IN_MOVE_SELF
        | IN_ONLYDIR;

    extern "C" {
        // inotify(7) from the C runtime every Rust binary already links —
        // the same minimal-FFI precedent as `poll(2)` in the server: std
        // exposes no change-notification API and the workspace takes no
        // new crates.
        fn inotify_init1(flags: c_int) -> c_int;
        fn inotify_add_watch(fd: c_int, pathname: *const c_char, mask: u32) -> c_int;
    }

    pub(super) fn init() -> Option<File> {
        // SAFETY: `inotify_init1` takes no pointers; it returns a new file
        // descriptor or -1, and nothing else refers to the descriptor.
        let fd = unsafe { inotify_init1(IN_NONBLOCK | IN_CLOEXEC) };
        // SAFETY: `fd` is a fresh, open descriptor owned by nobody else,
        // so the `File` may own (and eventually close) it.
        (fd >= 0).then(|| unsafe { File::from_raw_fd(fd) })
    }

    pub(super) fn add_watch(fd: &File, dir: &Path) -> bool {
        let Ok(path) = CString::new(dir.as_os_str().as_bytes()) else {
            return false;
        };
        // SAFETY: `path` is a NUL-terminated string that outlives the
        // call, and `fd` is an open inotify descriptor borrowed for it;
        // the kernel only reads the string.
        unsafe { inotify_add_watch(fd.as_raw_fd(), path.as_ptr(), MASK) >= 0 }
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(
        target_arch = "x86_64",
        target_arch = "x86",
        target_arch = "aarch64",
        target_arch = "arm",
        target_arch = "riscv64"
    )
)))]
mod sys {
    use std::fs::File;
    use std::path::Path;

    pub(super) fn init() -> Option<File> {
        None
    }

    pub(super) fn add_watch(_fd: &File, _dir: &Path) -> bool {
        false
    }
}
