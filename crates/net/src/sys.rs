//! Raw Linux syscalls for the event loop and the artifact store.
//!
//! The workspace vendors external crates as offline shims rather than
//! pulling dependencies, and the same discipline applies here: instead
//! of `libc`/`mio` this module issues the five syscalls the event loop
//! needs (`epoll_create1`, `epoll_ctl`, `epoll_wait`, `eventfd2`,
//! `close`) plus `mmap`/`munmap` for the store and `prlimit64` for
//! fd-limit introspection, directly via inline assembly on x86-64
//! Linux. Everything above this module is safe code working with
//! `io::Result`s.
//!
//! On any other target the functions exist but return
//! [`std::io::ErrorKind::Unsupported`], so the crate still compiles:
//! the store falls back to `read`, and the daemon refuses to start
//! (the in-process service needs none of this).

/// One epoll readiness record, laid out as the kernel expects
/// (`struct epoll_event` is packed on x86-64).
#[repr(C, packed)]
#[derive(Debug, Clone, Copy, Default)]
pub struct EpollEvent {
    /// Ready-event bitmask (`EPOLLIN` | `EPOLLOUT` | ...).
    pub events: u32,
    /// Caller-chosen token, returned verbatim with each event.
    pub data: u64,
}

/// Readable readiness.
pub const EPOLLIN: u32 = 0x001;
/// Writable readiness.
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (always reported, never needs registering).
pub const EPOLLERR: u32 = 0x008;
/// Hang-up (peer closed both directions).
pub const EPOLLHUP: u32 = 0x010;
/// Peer shut down its write half.
pub const EPOLLRDHUP: u32 = 0x2000;
/// Edge-triggered registration.
pub const EPOLLET: u32 = 1 << 31;

/// One resource limit, laid out as the kernel's `struct rlimit64`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct RLimit {
    /// Soft (enforced) limit.
    pub cur: u64,
    /// Hard ceiling the soft limit may be raised to.
    pub max: u64,
}

/// `epoll_ctl` op: register a new fd.
pub const EPOLL_CTL_ADD: i32 = 1;
/// `epoll_ctl` op: deregister an fd.
pub const EPOLL_CTL_DEL: i32 = 2;
/// `epoll_ctl` op: change an existing registration.
pub const EPOLL_CTL_MOD: i32 = 3;

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod imp {
    use super::EpollEvent;
    use std::io;

    const SYS_READ: u64 = 0;
    const SYS_WRITE: u64 = 1;
    const SYS_CLOSE: u64 = 3;
    const SYS_MMAP: u64 = 9;
    const SYS_MUNMAP: u64 = 11;
    const SYS_EPOLL_WAIT: u64 = 232;
    const SYS_EPOLL_CTL: u64 = 233;
    const SYS_EVENTFD2: u64 = 290;
    const SYS_EPOLL_CREATE1: u64 = 291;
    const SYS_PRLIMIT64: u64 = 302;

    const RLIMIT_NOFILE: u64 = 7;

    const EPOLL_CLOEXEC: u64 = 0x80000;
    const EFD_CLOEXEC: u64 = 0x80000;
    const EFD_NONBLOCK: u64 = 0x800;

    const PROT_READ: u64 = 0x1;
    const MAP_PRIVATE: u64 = 0x2;

    /// Issues one syscall; negative returns are `-errno`.
    ///
    /// # Safety
    ///
    /// The caller must uphold the kernel contract for syscall `n` —
    /// in particular any pointer arguments must be valid for the
    /// access the kernel will perform.
    unsafe fn syscall6(n: u64, a1: u64, a2: u64, a3: u64, a4: u64, a5: u64, a6: u64) -> i64 {
        let ret: i64;
        core::arch::asm!(
            "syscall",
            inlateout("rax") n => ret,
            in("rdi") a1,
            in("rsi") a2,
            in("rdx") a3,
            in("r10") a4,
            in("r8") a5,
            in("r9") a6,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        ret
    }

    fn check(ret: i64) -> io::Result<i64> {
        if ret < 0 {
            Err(io::Error::from_raw_os_error(-ret as i32))
        } else {
            Ok(ret)
        }
    }

    pub fn epoll_create1() -> io::Result<i32> {
        // SAFETY: no pointer arguments.
        let ret = unsafe { syscall6(SYS_EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0, 0) };
        check(ret).map(|fd| fd as i32)
    }

    pub fn epoll_ctl(
        epfd: i32,
        op: i32,
        fd: i32,
        event: Option<&mut EpollEvent>,
    ) -> io::Result<()> {
        let ptr = event.map_or(0u64, |e| e as *mut EpollEvent as u64);
        // SAFETY: `ptr` is null (DEL) or points at a live EpollEvent the
        // kernel only reads.
        let ret = unsafe { syscall6(SYS_EPOLL_CTL, epfd as u64, op as u64, fd as u64, ptr, 0, 0) };
        check(ret).map(|_| ())
    }

    pub fn epoll_wait(epfd: i32, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        loop {
            // SAFETY: `events` is a live, writable slice; the kernel
            // writes at most `events.len()` records.
            let ret = unsafe {
                syscall6(
                    SYS_EPOLL_WAIT,
                    epfd as u64,
                    events.as_mut_ptr() as u64,
                    events.len() as u64,
                    timeout_ms as i64 as u64,
                    0,
                    0,
                )
            };
            match check(ret) {
                Ok(n) => return Ok(n as usize),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    pub fn eventfd() -> io::Result<i32> {
        // SAFETY: no pointer arguments.
        let ret = unsafe { syscall6(SYS_EVENTFD2, 0, EFD_CLOEXEC | EFD_NONBLOCK, 0, 0, 0, 0) };
        check(ret).map(|fd| fd as i32)
    }

    pub fn write_u64(fd: i32, value: u64) -> io::Result<()> {
        let bytes = value.to_ne_bytes();
        // SAFETY: `bytes` outlives the call; the kernel reads 8 bytes.
        let ret = unsafe { syscall6(SYS_WRITE, fd as u64, bytes.as_ptr() as u64, 8, 0, 0, 0) };
        check(ret).map(|_| ())
    }

    pub fn read_u64(fd: i32) -> io::Result<u64> {
        let mut bytes = [0u8; 8];
        // SAFETY: `bytes` is writable for 8 bytes.
        let ret = unsafe { syscall6(SYS_READ, fd as u64, bytes.as_mut_ptr() as u64, 8, 0, 0, 0) };
        check(ret).map(|_| u64::from_ne_bytes(bytes))
    }

    pub fn close(fd: i32) -> io::Result<()> {
        // SAFETY: no pointer arguments; closing an fd we own.
        let ret = unsafe { syscall6(SYS_CLOSE, fd as u64, 0, 0, 0, 0, 0) };
        check(ret).map(|_| ())
    }

    pub fn mmap_readonly(fd: i32, len: usize) -> io::Result<*const u8> {
        // SAFETY: a fresh private read-only mapping at a kernel-chosen
        // address; no existing memory is affected.
        let ret = unsafe {
            syscall6(
                SYS_MMAP,
                0,
                len as u64,
                PROT_READ,
                MAP_PRIVATE,
                fd as u64,
                0,
            )
        };
        check(ret).map(|addr| addr as *const u8)
    }

    pub fn munmap(addr: *const u8, len: usize) -> io::Result<()> {
        // SAFETY: unmapping a region this process previously mapped.
        let ret = unsafe { syscall6(SYS_MUNMAP, addr as u64, len as u64, 0, 0, 0, 0) };
        check(ret).map(|_| ())
    }

    pub fn get_nofile() -> io::Result<super::RLimit> {
        let mut lim = super::RLimit { cur: 0, max: 0 };
        // SAFETY: the kernel writes one rlimit64 into `lim` (pid 0 =
        // this process, old_limit out-pointer, no new limit).
        let ret = unsafe {
            syscall6(
                SYS_PRLIMIT64,
                0,
                RLIMIT_NOFILE,
                0,
                &mut lim as *mut super::RLimit as u64,
                0,
                0,
            )
        };
        check(ret).map(|_| lim)
    }

    pub fn set_nofile(lim: super::RLimit) -> io::Result<()> {
        // SAFETY: the kernel reads one rlimit64 from `lim` (new limit,
        // no out-pointer).
        let ret = unsafe {
            syscall6(
                SYS_PRLIMIT64,
                0,
                RLIMIT_NOFILE,
                &lim as *const super::RLimit as u64,
                0,
                0,
                0,
            )
        };
        check(ret).map(|_| ())
    }

    /// Dereferences a mapped region as a byte slice.
    ///
    /// # Safety encapsulation
    ///
    /// Only [`crate::Mmap`] calls this, with the pointer and length it
    /// got from a successful [`mmap_readonly`] and before the matching
    /// [`munmap`], so the region is live and immutable for the slice's
    /// lifetime.
    pub fn map_slice<'a>(addr: *const u8, len: usize) -> &'a [u8] {
        // SAFETY: see above — addr/len name a live PROT_READ mapping.
        unsafe { std::slice::from_raw_parts(addr, len) }
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod imp {
    use super::EpollEvent;
    use std::io;

    fn unsupported<T>() -> io::Result<T> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "lalr-net raw syscalls are only implemented for x86-64 Linux",
        ))
    }

    pub fn epoll_create1() -> io::Result<i32> {
        unsupported()
    }
    pub fn epoll_ctl(_: i32, _: i32, _: i32, _: Option<&mut EpollEvent>) -> io::Result<()> {
        unsupported()
    }
    pub fn epoll_wait(_: i32, _: &mut [EpollEvent], _: i32) -> io::Result<usize> {
        unsupported()
    }
    pub fn eventfd() -> io::Result<i32> {
        unsupported()
    }
    pub fn write_u64(_: i32, _: u64) -> io::Result<()> {
        unsupported()
    }
    pub fn read_u64(_: i32) -> io::Result<u64> {
        unsupported()
    }
    pub fn close(_: i32) -> io::Result<()> {
        unsupported()
    }
    pub fn mmap_readonly(_: i32, _: usize) -> io::Result<*const u8> {
        unsupported()
    }
    pub fn munmap(_: *const u8, _: usize) -> io::Result<()> {
        unsupported()
    }
    pub fn get_nofile() -> io::Result<super::RLimit> {
        unsupported()
    }
    pub fn set_nofile(_: super::RLimit) -> io::Result<()> {
        unsupported()
    }
    pub fn map_slice<'a>(_: *const u8, _: usize) -> &'a [u8] {
        &[]
    }
}

pub(crate) use imp::{
    close, epoll_create1, epoll_ctl, epoll_wait, eventfd, map_slice, mmap_readonly, munmap,
    read_u64, write_u64,
};

/// `true` when the raw-syscall backend is available on this target.
pub fn supported() -> bool {
    cfg!(all(target_os = "linux", target_arch = "x86_64"))
}

/// The process's current `RLIMIT_NOFILE` as `(soft, hard)`.
pub fn nofile_limit() -> std::io::Result<(u64, u64)> {
    imp::get_nofile().map(|l| (l.cur, l.max))
}

/// Raises the soft fd limit toward `want` (never beyond the hard
/// ceiling) and returns the soft limit now in effect. A `want` at or
/// below the current soft limit is a no-op, so callers can ask for
/// their ideal capacity unconditionally.
pub fn raise_nofile_limit(want: u64) -> std::io::Result<u64> {
    let (cur, max) = nofile_limit()?;
    let target = want.min(max);
    if target > cur {
        imp::set_nofile(RLimit { cur: target, max })?;
        Ok(target)
    } else {
        Ok(cur)
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn nofile_limit_reads_and_no_op_raise_succeeds() {
        if !super::supported() {
            return;
        }
        let (cur, max) = super::nofile_limit().expect("prlimit64 reads");
        assert!(cur > 0 && cur <= max, "({cur}, {max})");
        // Asking for what we already have must not fail or shrink.
        let soft = super::raise_nofile_limit(cur).expect("no-op raise");
        assert!(soft >= cur);
    }
}
