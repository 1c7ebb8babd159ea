//! The per-VM power-efficiency parameter.
//!
//! The paper's evaluation uses a two-level power model (Table II: one
//! active and one idle wattage per class; `Pm::power_draw_w` and
//! `Datacenter::total_power_w` implement it). This module derives the
//! `power_j` ("per-VM power consumption", Section III-B-4) the `eff_j`
//! factor needs from it.

use crate::pm::PmClass;

/// The paper's `power_j`: active power divided by `W_j`, the maximum number
/// of minimum VMs the PM can host — i.e. watts per VM slot.
///
/// Returns `None` if the PM cannot host even one minimum VM (`W_j = 0`),
/// in which case it should be excluded from placement entirely.
pub fn per_vm_power_w(class: &PmClass, min_vm: &crate::resources::ResourceVector) -> Option<f64> {
    let w = class.capacity.contains_times(min_vm);
    (w > 0).then(|| class.active_power_w / w as f64)
}

/// The relative power-efficiency parameter `eff_j = min_m{power_m} / power_j`
/// over a set of classes (Section III-B-4). The most efficient class gets
/// 1.0; less efficient classes get proportionally smaller values.
///
/// Classes whose `W_j` is zero receive efficiency 0 (they can never host the
/// minimum VM and thus never win a placement).
pub fn relative_efficiencies(
    classes: &[PmClass],
    min_vm: &crate::resources::ResourceVector,
) -> Vec<f64> {
    let per_vm: Vec<Option<f64>> = classes.iter().map(|c| per_vm_power_w(c, min_vm)).collect();
    let best = per_vm
        .iter()
        .flatten()
        .fold(f64::INFINITY, |a, &b| a.min(b));
    per_vm
        .iter()
        .map(|p| match p {
            Some(p) if best.is_finite() => best / p,
            _ => 0.0,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::ResourceVector;

    #[test]
    fn per_vm_power_uses_w_slots() {
        // One-core, 512 MiB minimum VM: fast hosts min(8, 16) = 8 slots,
        // slow hosts min(4, 8) = 4 slots.
        let min_vm = ResourceVector::cpu_mem(1, 512);
        let fast = per_vm_power_w(&PmClass::paper_fast(), &min_vm).unwrap();
        let slow = per_vm_power_w(&PmClass::paper_slow(), &min_vm).unwrap();
        assert_eq!(fast, 50.0); // 400 / 8
        assert_eq!(slow, 75.0); // 300 / 4
    }

    #[test]
    fn fast_nodes_are_more_efficient_per_vm() {
        let min_vm = ResourceVector::cpu_mem(1, 512);
        let effs = relative_efficiencies(&[PmClass::paper_fast(), PmClass::paper_slow()], &min_vm);
        assert_eq!(effs[0], 1.0, "fast class is the efficiency reference");
        assert!((effs[1] - 50.0 / 75.0).abs() < 1e-12);
    }

    #[test]
    fn oversized_min_vm_gives_zero_efficiency() {
        let huge = ResourceVector::cpu_mem(100, 1);
        assert_eq!(per_vm_power_w(&PmClass::paper_fast(), &huge), None);
        let effs = relative_efficiencies(&[PmClass::paper_fast()], &huge);
        assert_eq!(effs, vec![0.0]);
    }

    #[test]
    fn single_class_has_unit_efficiency() {
        let min_vm = ResourceVector::cpu_mem(1, 512);
        let effs = relative_efficiencies(&[PmClass::paper_slow()], &min_vm);
        assert_eq!(effs, vec![1.0]);
    }
}
