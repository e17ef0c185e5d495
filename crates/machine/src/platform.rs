//! Heterogeneous platform configurations: which domains exist, how many
//! cores each exposes, and what link reaches each card.

use crate::config::{Device, LinkSpec, Overheads};
use crate::cost::CostModel;
use serde::{Deserialize, Serialize};

/// Role of a domain within the platform.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum DomainRole {
    /// The host CPU: holds the source copy of every buffer; may also execute
    /// work via host-as-target streams.
    Host,
    /// A coprocessor card reached over a link.
    Card,
}

/// One domain of the simulated platform.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DomainCfg {
    pub device: Device,
    pub role: DomainRole,
    /// Cores available for stream sinks in this domain. For KNC the paper
    /// reserves one core for the OS/offload daemon: 60 of 61 usable.
    pub cores: u32,
    /// Link reaching this domain from the host (None for the host itself).
    pub link: Option<LinkSpec>,
}

impl DomainCfg {
    pub fn host(device: Device) -> DomainCfg {
        DomainCfg {
            device,
            role: DomainRole::Host,
            cores: device.spec().total_cores(),
            link: None,
        }
    }

    pub fn knc_card() -> DomainCfg {
        DomainCfg {
            device: Device::Knc,
            role: DomainRole::Card,
            // 61 cores, 1 reserved for the uOS + COI daemon.
            cores: 60,
            link: Some(LinkSpec::pcie_knc()),
        }
    }
}

/// A full platform: host domain first, then cards.
#[derive(Clone, Debug)]
pub struct PlatformCfg {
    pub name: String,
    pub domains: Vec<DomainCfg>,
    pub overheads: Overheads,
    /// Whether the COI 2 MB buffer pool is enabled (the §III analysis shows
    /// allocation overheads are significant without it, as in the OmpSs
    /// runs).
    pub coi_buffer_pool: bool,
}

impl PlatformCfg {
    /// Host-only platform (native execution).
    pub fn native(host: Device) -> PlatformCfg {
        PlatformCfg {
            name: format!("{} native", host.short()),
            domains: vec![DomainCfg::host(host)],
            overheads: Overheads::paper(),
            coi_buffer_pool: true,
        }
    }

    /// Host + `ncards` KNC cards; host participates in compute
    /// (host-as-target streams), as in the paper's "hetero" runs.
    pub fn hetero(host: Device, ncards: usize) -> PlatformCfg {
        let mut domains = vec![DomainCfg::host(host)];
        domains.extend((0..ncards).map(|_| DomainCfg::knc_card()));
        PlatformCfg {
            name: format!("{} + {} KNC", host.short(), ncards),
            domains,
            overheads: Overheads::paper(),
            coi_buffer_pool: true,
        }
    }

    /// Host + cards, but host only orchestrates (pure offload, as in the
    /// "1 KNC (offload)" curves).
    pub fn offload(host: Device, ncards: usize) -> PlatformCfg {
        let mut p = Self::hetero(host, ncards);
        p.name = format!("{} KNC (offload via {})", ncards, host.short());
        p
    }

    pub fn host(&self) -> &DomainCfg {
        &self.domains[0]
    }

    pub fn cards(&self) -> impl Iterator<Item = (usize, &DomainCfg)> {
        self.domains
            .iter()
            .enumerate()
            .filter(|(_, d)| d.role == DomainRole::Card)
    }

    pub fn num_cards(&self) -> usize {
        self.cards().count()
    }

    /// The shared cost model for this platform.
    pub fn cost_model(&self) -> CostModel {
        CostModel::with_overheads(self.overheads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn native_platform_has_single_host_domain() {
        let p = PlatformCfg::native(Device::Hsw);
        assert_eq!(p.domains.len(), 1);
        assert_eq!(p.host().role, DomainRole::Host);
        assert_eq!(p.num_cards(), 0);
        assert!(p.host().link.is_none());
    }

    #[test]
    fn hetero_platform_layout() {
        let p = PlatformCfg::hetero(Device::Hsw, 2);
        assert_eq!(p.domains.len(), 3);
        assert_eq!(p.num_cards(), 2);
        for (i, card) in p.cards() {
            assert!(i >= 1);
            assert_eq!(card.device, Device::Knc);
            assert!(card.link.is_some());
            assert_eq!(card.cores, 60, "one KNC core reserved for the uOS");
        }
    }

    #[test]
    fn card_indices_follow_host() {
        let p = PlatformCfg::hetero(Device::Ivb, 2);
        let idxs: Vec<usize> = p.cards().map(|(i, _)| i).collect();
        assert_eq!(idxs, vec![1, 2]);
    }

    #[test]
    fn names_are_informative() {
        assert!(PlatformCfg::hetero(Device::Hsw, 2).name.contains("HSW"));
        assert!(PlatformCfg::offload(Device::Hsw, 1)
            .name
            .contains("offload"));
    }
}
