//! Stdout for the cp-bench binaries. `println!` panics when the reader
//! closes the pipe early (`repro --table 2 | head -1`);
//! [`out!`](crate::out) and [`outln!`](crate::outln) write through
//! [`write()`] instead, which ends output quietly at the first
//! `BrokenPipe`, so the command still runs to completion and exits with
//! its own code.

use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};

/// Set by the first write that found the reader gone; publishes nothing
/// else, so `Relaxed` suffices.
static CLOSED: AtomicBool = AtomicBool::new(false);

/// Writes `args` to stdout, or nothing once the reader has closed it.
///
/// # Panics
///
/// On any other stdout write error, as `print!` does.
pub fn write(args: std::fmt::Arguments<'_>) {
    if CLOSED.load(Ordering::Relaxed) {
        return;
    }
    match std::io::stdout().lock().write_fmt(args) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => {
            CLOSED.store(true, Ordering::Relaxed);
        }
        Err(e) => panic!("failed printing to stdout: {e}"),
    }
}

/// `print!` through [`write()`](crate::stdout::write).
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::stdout::write(format_args!($($arg)*))
    };
}

/// `println!` through [`write()`](crate::stdout::write).
#[macro_export]
macro_rules! outln {
    () => {
        $crate::stdout::write(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::stdout::write(format_args!("{}\n", format_args!($($arg)*)))
    };
}
