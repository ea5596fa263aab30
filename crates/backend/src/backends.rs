//! The backend as plain data, and the three shipped device targets.
//!
//! A backend is one value: identity (registry name, description,
//! fingerprint namespace), the coupling lattice, the Hamiltonian-level
//! control limits and an optional per-qubit / per-coupler calibration
//! overlay. [`Backend::device`] is the one derived operation that must
//! be consistent across the stack: building the [`Device`] whose
//! fingerprint namespaces every pulse store and cache key downstream.

use crate::snapshot::{parse_snapshot, CalError};
use paqoc_device::{
    Device, DeviceTuning, HardwareSpec, Topology, NS_HEAVY_HEX, NS_TUNABLE_COUPLER,
};

/// The default heavy-hex calibration snapshot, shipped with the crate.
pub const HEAVY_HEX_DEFAULT_CAL: &str = include_str!("../data/heavy_hex_cal.json");

/// Hexagon rows/cols of the shipped heavy-hex lattice (33 qubits).
const HEAVY_HEX_ROWS: usize = 2;
const HEAVY_HEX_COLS: usize = 2;

/// Grid side of the tunable-coupler lattice.
const TUNABLE_COUPLER_SIDE: usize = 4;

/// A device target.
#[derive(Clone, Debug)]
pub struct Backend {
    /// Registry name, e.g. `"heavy-hex"`.
    pub name: &'static str,
    /// One-line human description for CLI listings.
    pub description: &'static str,
    /// Fingerprint namespace id (see `paqoc_device::fingerprint`), or
    /// `None` for a legacy untagged device. The paper grid has `None`
    /// so its fingerprint — and with it every store file, cache key,
    /// bench dump and baseline — stays byte-identical.
    pub ns_id: Option<u8>,
    /// The qubit-coupling graph.
    pub topology: Topology,
    /// The control-field limits shared by every qubit before
    /// calibration scaling.
    pub spec: HardwareSpec,
    /// The per-qubit / per-coupler calibration snapshot, or `None` for
    /// an idealized (spec-only) device.
    pub calibration: Option<DeviceTuning>,
}

impl Backend {
    /// The paper's idealized 5×5 transmon grid.
    ///
    /// Deliberately the *legacy* device: no calibration, no namespace
    /// tag. Its [`Backend::device`] is bit-identical to
    /// `Device::grid5x5()` — same fingerprint, same store files, same
    /// bench dumps — so adopting the backend registry is not a
    /// migration for existing users.
    pub fn transmon_grid() -> Self {
        Backend {
            name: "transmon-grid",
            description: "idealized 5x5 transmon grid (the paper's device)",
            ns_id: None,
            topology: Topology::grid(5, 5),
            spec: HardwareSpec::transmon_xy(),
            calibration: None,
        }
    }

    /// The IBM-style heavy-hex lattice with the shipped default
    /// calibration snapshot.
    ///
    /// # Panics
    ///
    /// Never in practice: the embedded snapshot is validated by test.
    pub fn heavy_hex() -> Self {
        Self::heavy_hex_from_snapshot_str(HEAVY_HEX_DEFAULT_CAL).expect("shipped snapshot is valid")
    }

    /// The heavy-hex lattice with per-qubit calibration from a
    /// caller-supplied `paqoc-cal-1` snapshot document.
    ///
    /// # Errors
    ///
    /// Returns [`CalError`] when the snapshot is malformed or does not
    /// cover the 33-qubit lattice.
    pub fn heavy_hex_from_snapshot_str(text: &str) -> Result<Self, CalError> {
        let topology = Topology::heavy_hex(HEAVY_HEX_ROWS, HEAVY_HEX_COLS);
        let tuning = parse_snapshot(text, topology.num_qubits())?;
        Ok(Backend {
            name: "heavy-hex",
            description: "IBM-style 33-qubit heavy-hex lattice with per-qubit calibration",
            ns_id: Some(NS_HEAVY_HEX),
            topology,
            spec: HardwareSpec::transmon_xy(),
            calibration: Some(tuning),
        })
    }

    /// The heavy-hex lattice with a snapshot read from `path`.
    ///
    /// # Errors
    ///
    /// Returns [`CalError`] when the file is unreadable or malformed.
    pub fn heavy_hex_from_snapshot_file(path: &std::path::Path) -> Result<Self, CalError> {
        let text = std::fs::read_to_string(path).map_err(|e| CalError {
            message: format!("{}: {e}", path.display()),
        })?;
        Self::heavy_hex_from_snapshot_str(&text)
    }

    /// A 4×4 tunable-coupler grid of fixed-frequency transmons at flux
    /// bias `flux` ∈ \[0, 1\]: every two-qubit channel's strength is a
    /// deterministic function of the one flux parameter.
    ///
    /// Coupler `k` (in topology edge order) gets scale
    /// `0.55 + 0.45·cos(flux·π·(k+1)/num_edges)` — each coupler sits at
    /// a different point of its flux-tuning curve, so the two-qubit
    /// channels are genuinely parametric: changing `flux` re-scales
    /// every coupler differently and rotates the namespace.
    ///
    /// # Panics
    ///
    /// Panics when `flux` is not finite or outside \[0, 1\].
    pub fn tunable_coupler_at_flux(flux: f64) -> Self {
        assert!(
            flux.is_finite() && (0.0..=1.0).contains(&flux),
            "flux bias {flux} outside [0, 1]"
        );
        let topology = Topology::grid(TUNABLE_COUPLER_SIDE, TUNABLE_COUPLER_SIDE);
        let mut tuning = DeviceTuning::identity(topology.num_qubits());
        let num_edges = topology.edges().len();
        for (k, &(a, b)) in topology.edges().iter().enumerate() {
            let theta = flux * std::f64::consts::PI * (k + 1) as f64 / num_edges as f64;
            let scale = 0.55 + 0.45 * theta.cos();
            tuning.coupler_scale.insert((a.min(b), a.max(b)), scale);
        }
        Backend {
            name: "tunable-coupler",
            description: "4x4 grid of fixed-frequency transmons with flux-tunable couplers",
            ns_id: Some(NS_TUNABLE_COUPLER),
            topology,
            spec: HardwareSpec::transmon_xy(),
            calibration: Some(tuning),
        }
    }

    /// The tunable-coupler grid at its default flux bias, 0.5.
    pub fn tunable_coupler() -> Self {
        Self::tunable_coupler_at_flux(0.5)
    }

    /// Builds the device this backend models: tagged and
    /// namespace-fingerprinted when the backend is calibrated,
    /// bit-identical to the legacy constructor when it is not.
    pub fn device(&self) -> Device {
        match (self.ns_id, &self.calibration) {
            (Some(ns), Some(tuning)) => Device::with_tuning(
                self.topology.clone(),
                self.spec,
                tuning.clone(),
                self.name,
                ns,
            ),
            // Uncalibrated or legacy: the untagged constructor, so the
            // fingerprint is the raw topology+spec hash.
            _ => Device::new(self.topology.clone(), self.spec),
        }
    }

    /// The 16-bit digest of the active snapshot, `None` when
    /// uncalibrated. A drifted snapshot changes this, which rotates the
    /// device fingerprint and with it every store namespace.
    pub fn calibration_id(&self) -> Option<u16> {
        self.calibration.as_ref().map(DeviceTuning::cal_id)
    }

    /// Drive-channel name of qubit `q`: `d{q}`, the OpenPulse
    /// convention.
    pub fn drive_channel(&self, q: usize) -> String {
        format!("d{q}")
    }

    /// Control-channel name of the `k`-th coupler edge in the
    /// topology's edge list: `u{k}`, the OpenPulse convention.
    pub fn coupler_channel(&self, k: usize) -> String {
        format!("u{k}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paqoc_device::{decode_fingerprint, FingerprintKind};

    #[test]
    fn transmon_grid_backend_is_bit_identical_to_grid5x5() {
        let via_backend = Backend::transmon_grid().device();
        let legacy = Device::grid5x5();
        assert_eq!(via_backend.fingerprint(), legacy.fingerprint());
        assert_eq!(via_backend.backend_name(), "transmon-grid");
        assert_eq!(
            decode_fingerprint(via_backend.fingerprint()),
            FingerprintKind::Legacy
        );
        // The control sets — what GRAPE and the analytic model actually
        // consume — agree too.
        let a = via_backend.controls_for(&[0, 1]);
        let b = legacy.controls_for(&[0, 1]);
        assert_eq!(a.channels.len(), b.channels.len());
        for (ca, cb) in a.channels.iter().zip(&b.channels) {
            assert_eq!(ca.max_amp.to_bits(), cb.max_amp.to_bits());
        }
    }

    #[test]
    fn shipped_heavy_hex_snapshot_is_valid_and_namespaced() {
        let backend = Backend::heavy_hex();
        let device = backend.device();
        assert_eq!(device.topology().num_qubits(), 33);
        assert_eq!(device.backend_name(), "heavy-hex");
        match decode_fingerprint(device.fingerprint()) {
            FingerprintKind::Namespaced { ns_id, cal_id } => {
                assert_eq!(ns_id, NS_HEAVY_HEX);
                assert_eq!(Some(cal_id), backend.calibration_id());
            }
            k => panic!("expected namespaced fingerprint, got {k:?}"),
        }
    }

    #[test]
    fn heavy_hex_snapshot_drift_rotates_the_fingerprint() {
        let base = Backend::heavy_hex().device();
        let drifted = HEAVY_HEX_DEFAULT_CAL.replacen("\"t1_us\": 1", "\"t1_us\": 2", 1);
        assert_ne!(drifted, HEAVY_HEX_DEFAULT_CAL, "the replace must bite");
        let drifted = Backend::heavy_hex_from_snapshot_str(&drifted)
            .expect("still valid")
            .device();
        assert_ne!(base.fingerprint(), drifted.fingerprint());
        assert!(paqoc_device::is_namespaced(drifted.fingerprint()));
    }

    #[test]
    fn tunable_coupler_flux_is_parametric() {
        let a = Backend::tunable_coupler_at_flux(0.25).device();
        let b = Backend::tunable_coupler_at_flux(0.75).device();
        assert_ne!(a.fingerprint(), b.fingerprint(), "flux is part of identity");
        // Different couplers sit at different points of the tuning
        // curve even within one device.
        let t = Backend::tunable_coupler_at_flux(0.5);
        let edges = t.topology.edges();
        let tuning = t.calibration.as_ref().expect("calibrated");
        let first = tuning.coupler(edges[0].0, edges[0].1);
        let last = tuning.coupler(edges[edges.len() - 1].0, edges[edges.len() - 1].1);
        assert_ne!(first, last);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn tunable_coupler_rejects_wild_flux() {
        let _ = Backend::tunable_coupler_at_flux(1.5);
    }
}
