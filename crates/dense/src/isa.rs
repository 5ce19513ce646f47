//! Runtime ISA selection for the f64 microkernels.
//!
//! The portable register-blocked kernel of [`crate::microkernel`] relies
//! on LLVM's autovectorizer, which tops out well below what explicit f64
//! FMA units deliver. The private `simd` module provides hand-written
//! `std::arch` kernels per instruction set; this module decides **which
//! one runs**:
//!
//! 1. an in-process override installed by [`force_isa`] (an RAII guard,
//!    used by the forced-ISA test matrix),
//! 2. else the `SYRK_FORCE_ISA` environment variable (`scalar`, `avx2`,
//!    `avx512`, or `neon` — parsed and validated **once**; an unknown
//!    name or an ISA the host cannot run is a hard error, never silently
//!    ignored),
//! 3. else the best ISA runtime feature detection reports
//!    (`is_x86_feature_detected!` on x86_64; NEON is baseline on
//!    aarch64), cached in a `OnceLock` so detection happens once per
//!    process.
//!
//! The selected [`Isa`] indexes the kernel-dispatch table in
//! [`crate::microkernel`]; every dense driver resolves its
//! [`crate::microkernel::KernelSpec`] from it once per kernel call.
//! Results are **bitwise deterministic for a fixed ISA** across thread
//! counts and task placements (each output element accumulates in the
//! same ascending-k op sequence regardless of scheduling), but *different
//! ISAs round differently* (FMA fuses the multiply-add), so anything
//! asserting bitwise equality must pin the ISA first.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// An instruction-set architecture a microkernel is specialized for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Isa {
    /// The portable autovectorized 4×4 kernel — runs everywhere.
    Scalar,
    /// x86_64 AVX2 + FMA, 8×6 register tile.
    Avx2,
    /// x86_64 AVX-512F, 16×14 register tile.
    Avx512,
    /// aarch64 NEON, 8×6 register tile.
    Neon,
}

impl Isa {
    /// Number of ISA variants (sizes the per-ISA stat counters).
    pub const COUNT: usize = 4;

    /// All variants, in [`Isa::index`] order.
    pub(crate) const ALL: [Isa; Isa::COUNT] = [Isa::Scalar, Isa::Avx2, Isa::Avx512, Isa::Neon];

    /// Stable index of this ISA into per-ISA counter arrays.
    #[inline]
    pub(crate) fn index(self) -> usize {
        match self {
            Isa::Scalar => 0,
            Isa::Avx2 => 1,
            Isa::Avx512 => 2,
            Isa::Neon => 3,
        }
    }

    /// The name used by `SYRK_FORCE_ISA` and in bench/trace output.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512",
            Isa::Neon => "neon",
        }
    }

    /// Parse a `SYRK_FORCE_ISA` value. `None` for unknown names — the
    /// caller turns that into a hard error listing the valid spellings.
    pub(crate) fn from_name(s: &str) -> Option<Isa> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(Isa::Scalar),
            "avx2" => Some(Isa::Avx2),
            "avx512" => Some(Isa::Avx512),
            "neon" => Some(Isa::Neon),
            _ => None,
        }
    }

    /// Whether the running host can execute this ISA's kernel.
    pub(crate) fn available(self) -> bool {
        match self {
            Isa::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
            }
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(target_arch = "aarch64")]
            Isa::Neon => true,
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }
}

impl std::fmt::Display for Isa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Every ISA the running host can execute, best first, `Scalar` always
/// last — the iteration set of the forced-ISA test matrix.
pub fn available_isas() -> Vec<Isa> {
    let mut out: Vec<Isa> = [Isa::Avx512, Isa::Avx2, Isa::Neon]
        .into_iter()
        .filter(|isa| isa.available())
        .collect();
    out.push(Isa::Scalar);
    out
}

/// The best ISA runtime feature detection reports for this host,
/// detected once per process.
pub fn detected_isa() -> Isa {
    static DETECTED: OnceLock<Isa> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        if Isa::Avx512.available() {
            Isa::Avx512
        } else if Isa::Avx2.available() {
            Isa::Avx2
        } else if Isa::Neon.available() {
            Isa::Neon
        } else {
            Isa::Scalar
        }
    })
}

/// Validate that `isa` can run here, or die with an actionable message
/// naming who asked for it.
fn require_available(isa: Isa, origin: &str) {
    assert!(
        isa.available(),
        "{origin} requests ISA `{isa}`, but this host cannot execute it \
         (detected best: `{}`)",
        detected_isa()
    );
}

/// The `SYRK_FORCE_ISA` override, read, parsed, and validated exactly
/// once per process. Invalid values are a hard error — a typo silently
/// falling back to autodetection would publish benchmark numbers for the
/// wrong kernel.
fn env_forced_isa() -> Option<Isa> {
    static ENV_ISA: OnceLock<Option<Isa>> = OnceLock::new();
    *ENV_ISA.get_or_init(|| {
        let value = std::env::var("SYRK_FORCE_ISA").ok()?;
        let Some(isa) = Isa::from_name(&value) else {
            panic!(
                "SYRK_FORCE_ISA: unknown ISA {value:?} \
                 (valid values: scalar, avx2, avx512, neon)"
            );
        };
        require_available(isa, "SYRK_FORCE_ISA");
        Some(isa)
    })
}

/// In-process override: 0 = unset, else `Isa::index() + 1`. Process-wide
/// (the kernel dispatch must be visible to worker threads), like the
/// thread budget of [`crate::parallel::limit_threads`].
static ISA_OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// RAII guard restoring the previous in-process ISA override on drop.
#[must_use = "the ISA override is restored when the guard drops"]
#[derive(Debug)]
pub struct ForcedIsaGuard {
    prev: u8,
}

impl Drop for ForcedIsaGuard {
    fn drop(&mut self) {
        ISA_OVERRIDE.store(self.prev, Ordering::Relaxed);
    }
}

/// Pin the kernel dispatch to `isa` until the returned guard drops —
/// the in-process analogue of `SYRK_FORCE_ISA`, used by the forced-ISA
/// test matrix. Panics if the host cannot execute `isa`. Process-wide
/// and last-writer-wins under concurrent guards; every ISA computes
/// correct results, so the override affects performance and rounding,
/// never correctness.
pub fn force_isa(isa: Isa) -> ForcedIsaGuard {
    require_available(isa, "force_isa");
    let prev = ISA_OVERRIDE.swap(isa.index() as u8 + 1, Ordering::Relaxed);
    ForcedIsaGuard { prev }
}

/// The ISA the next kernel call will dispatch to: the [`force_isa`]
/// override if one is active, else `SYRK_FORCE_ISA`, else the detected
/// best. Drivers resolve this once per kernel invocation.
pub fn dispatched_isa() -> Isa {
    let forced = ISA_OVERRIDE.load(Ordering::Relaxed);
    if forced != 0 {
        return Isa::ALL[(forced - 1) as usize];
    }
    if let Some(isa) = env_forced_isa() {
        return isa;
    }
    detected_isa()
}

/// Crate-internal serialization for unit tests that either flip the
/// process-global ISA override or assert bitwise determinism that a
/// concurrent override flip would break. Integration tests run
/// single-binary suites with their own locks; this one covers the
/// unit-test binary, where the cargo test harness runs modules
/// concurrently.
#[cfg(test)]
pub(crate) mod test_lock {
    use std::sync::{Mutex, MutexGuard};

    static LOCK: Mutex<()> = Mutex::new(());

    /// Hold for the duration of any test sensitive to the ISA override.
    pub(crate) fn serial() -> MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for isa in Isa::ALL {
            assert_eq!(Isa::from_name(isa.name()), Some(isa));
            assert_eq!(Isa::ALL[isa.index()], isa);
        }
        assert_eq!(Isa::from_name(" AVX2 "), Some(Isa::Avx2), "trim + case");
        for bad in ["", "sse", "avx", "avx512vl", "scalar2", "0"] {
            assert_eq!(Isa::from_name(bad), None, "{bad:?} must be rejected");
        }
    }

    #[test]
    fn scalar_is_always_available() {
        assert!(Isa::Scalar.available());
        let avail = available_isas();
        assert_eq!(avail.last(), Some(&Isa::Scalar));
        assert!(avail.iter().all(|i| i.available()));
        // The detected best is one of the available set.
        assert!(avail.contains(&detected_isa()));
    }

    #[test]
    fn force_guard_restores_in_order() {
        let _serial = super::test_lock::serial();
        let ambient = dispatched_isa();
        {
            let _g = force_isa(Isa::Scalar);
            assert_eq!(dispatched_isa(), Isa::Scalar);
            if Isa::Avx2.available() {
                let _g2 = force_isa(Isa::Avx2);
                assert_eq!(dispatched_isa(), Isa::Avx2);
            }
            assert_eq!(dispatched_isa(), Isa::Scalar);
        }
        assert_eq!(dispatched_isa(), ambient);
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn neon_is_unavailable_on_x86() {
        assert!(!Isa::Neon.available());
    }
}
