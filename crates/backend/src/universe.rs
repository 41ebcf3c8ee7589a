//! Assembling the synthetic server-side Internet.
//!
//! [`UniverseBuilder`] is the single place where DNS zones, scan records,
//! AS registrations, and hosting ground truth are kept mutually
//! consistent. Higher layers (the testbed catalog, the wild simulation)
//! only say *what* exists — "devA's API domain is dedicated, pool of 8,
//! hourly rotation"; "devB fronts through CDN `akadns`" — and the builder
//! materializes every observable consequence:
//!
//! * authoritative [`ZoneDb`] entries (pools, CNAME indirection);
//! * an HTTPS [`ScanDb`] snapshot (per-domain certs on dedicated/cloud
//!   IPs, multi-tenant SAN certs on CDN edges);
//! * [`AsRegistry`] entries (clouds and CDNs register with their category,
//!   which drives the §2.1 server-IP classification);
//! * the [`Hosting`] oracle recording where each domain *actually* lives —
//!   consumed by tests and EXPERIMENTS.md calibration, never by the
//!   detector.

use crate::alloc::{AddressPlan, IpAllocator};
use haystack_dns::zone::RotationPolicy;
use haystack_dns::{DomainName, DomainPattern, ZoneDb};
use haystack_net::{AsCategory, AsRegistry, Asn, Prefix4};
use haystack_scan::{Certificate, HostScan, HttpsBanner, ScanDb};
use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;

/// Where a domain is hosted — ground truth for tests and calibration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Hosting {
    /// The operator's own servers (dedicated service IPs).
    Dedicated {
        /// Operator name.
        operator: String,
    },
    /// A rented cloud VM with a tenant-exclusive public IP.
    CloudVm {
        /// Cloud provider name.
        provider: String,
        /// Tenant (operator) name.
        tenant: String,
    },
    /// CDN-fronted: shared edge IPs.
    Cdn {
        /// CDN name.
        provider: String,
    },
}

impl Hosting {
    /// Whether IP-level attribution is possible for this hosting shape
    /// (the §4.2 dedicated-vs-shared distinction).
    pub fn is_dedicated(&self) -> bool {
        !matches!(self, Hosting::Cdn { .. })
    }
}

/// The assembled server-side world.
#[derive(Debug)]
pub struct BackendUniverse {
    /// Authoritative DNS.
    pub zones: ZoneDb,
    /// HTTPS scan snapshot.
    pub scans: ScanDb,
    /// AS registry (server-side entries registered; eyeball ASes are added
    /// by the wild simulation before finalizing).
    pub as_registry: AsRegistry,
    hosting: HashMap<DomainName, Hosting>,
}

impl BackendUniverse {
    /// Hosting ground truth for a domain.
    pub fn hosting_of(&self, d: &DomainName) -> Option<&Hosting> {
        self.hosting.get(d)
    }

    /// Oracle: is the domain on infrastructure where its service IPs are
    /// exclusive to its SLD (directly or via a tenant-exclusive VM)?
    pub fn is_dedicated(&self, d: &DomainName) -> Option<bool> {
        self.hosting.get(d).map(Hosting::is_dedicated)
    }

    /// All hosted domains, sorted (deterministic iteration for reports).
    pub fn domains(&self) -> Vec<&DomainName> {
        let mut v: Vec<_> = self.hosting.keys().collect();
        v.sort();
        v
    }

    /// Number of hosted domains.
    pub fn num_domains(&self) -> usize {
        self.hosting.len()
    }
}

struct OperatorState {
    ips: Vec<Ipv4Addr>,
    banner: HttpsBanner,
}

struct CloudState {
    zone_suffix: DomainName,
    alloc_block: IpAllocator,
    vm_count: u64,
    prefix: Prefix4,
}

struct CdnState {
    edges: Vec<Ipv4Addr>,
    zone_suffix: DomainName,
    tenants: Vec<DomainName>,
    active_per_name: usize,
    rotation_period_secs: u64,
    prefix: Prefix4,
}

/// Builder for [`BackendUniverse`]. See the module docs for the overall
/// contract; every `host_*` call returns the allocated service IPs so the
/// caller can wire traffic models to them if needed.
pub struct UniverseBuilder {
    zones: ZoneDb,
    hosting: HashMap<DomainName, Hosting>,
    dedicated_alloc: IpAllocator,
    generic_alloc: IpAllocator,
    cloud_block_alloc: u32,
    cdn_block_alloc: u32,
    operators: BTreeMap<String, OperatorState>,
    clouds: BTreeMap<String, CloudState>,
    cdns: BTreeMap<String, CdnState>,
    /// Deterministic serial for cert fingerprints.
    cert_serial: u64,
    /// (domain, cert, banner, ips) to insert into the scan snapshot at
    /// build time (dedicated + cloud; CDN edges are computed at build).
    pending_scans: Vec<(Certificate, HttpsBanner, Vec<Ipv4Addr>)>,
    next_asn: u32,
}

impl Default for UniverseBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl UniverseBuilder {
    /// Fresh builder over the standard [`AddressPlan`].
    pub fn new() -> Self {
        UniverseBuilder {
            zones: ZoneDb::new(),
            hosting: HashMap::new(),
            dedicated_alloc: IpAllocator::new(AddressPlan::dedicated()),
            generic_alloc: IpAllocator::new(AddressPlan::generic()),
            cloud_block_alloc: 0,
            cdn_block_alloc: 0,
            operators: BTreeMap::new(),
            clouds: BTreeMap::new(),
            cdns: BTreeMap::new(),
            cert_serial: 0,
            pending_scans: Vec::new(),
            next_asn: 64_600,
        }
    }

    fn next_serial(&mut self) -> u64 {
        self.cert_serial += 1;
        self.cert_serial
    }

    /// Register an IoT operator (manufacturer / platform) that runs its
    /// own dedicated backend.
    pub fn add_operator(&mut self, name: &str) {
        let banner = HttpsBanner::new(format!("{name}-backend"), name);
        self.operators.insert(
            name.to_string(),
            OperatorState {
                ips: Vec::new(),
                banner,
            },
        );
    }

    /// Register a cloud provider; VM IPs come from its own sub-block of
    /// the cloud superblock. `zone_suffix` is its infrastructure zone,
    /// e.g. `ec2compute.cloudnova.com`.
    pub fn add_cloud(&mut self, name: &str, zone_suffix: &str) {
        let prefix = AddressPlan::cloud()
            .subnet(14, self.cloud_block_alloc)
            .expect("cloud superblock exhausted");
        self.cloud_block_alloc += 1;
        self.clouds.insert(
            name.to_string(),
            CloudState {
                zone_suffix: DomainName::parse(zone_suffix).expect("valid cloud zone"),
                alloc_block: IpAllocator::new(prefix),
                vm_count: 0,
                prefix,
            },
        );
    }

    /// Register a CDN with `edge_count` shared edge addresses. Tenant
    /// dispatch names resolve to `active_per_name` of them, re-drawn every
    /// `rotation_period_secs`.
    pub fn add_cdn(
        &mut self,
        name: &str,
        zone_suffix: &str,
        edge_count: u32,
        active_per_name: usize,
        rotation_period_secs: u64,
    ) {
        let prefix = AddressPlan::cdn()
            .subnet(14, self.cdn_block_alloc)
            .expect("cdn superblock exhausted");
        self.cdn_block_alloc += 1;
        let mut alloc = IpAllocator::new(prefix);
        let edges = alloc.alloc_n(edge_count).expect("cdn block exhausted");
        self.cdns.insert(
            name.to_string(),
            CdnState {
                edges,
                zone_suffix: DomainName::parse(zone_suffix).expect("valid cdn zone"),
                tenants: Vec::new(),
                active_per_name,
                rotation_period_secs,
                prefix,
            },
        );
    }

    /// Host `domain` on `operator`'s dedicated infrastructure with a
    /// private pool of `pool_size` addresses, `active` of which are live
    /// at a time, rotating every `rotation_period_secs` (0 = stable).
    /// Returns the pool.
    pub fn host_dedicated(
        &mut self,
        operator: &str,
        domain: &DomainName,
        pool_size: u32,
        active: usize,
        rotation_period_secs: u64,
    ) -> Vec<Ipv4Addr> {
        let ips = self
            .dedicated_alloc
            .alloc_n(pool_size)
            .expect("dedicated space exhausted");
        let serial = self.next_serial();
        let st = self
            .operators
            .get_mut(operator)
            .expect("operator not registered");
        st.ips.extend(&ips);
        let banner = st.banner.clone();
        self.zones.insert_pool(
            domain.clone(),
            ips.clone(),
            RotationPolicy {
                active_count: active,
                period_secs: rotation_period_secs,
            },
        );
        let cert = Certificate::new(
            vec![
                DomainPattern::Exact(domain.clone()),
                DomainPattern::parse(&format!("*.{}", domain.sld())).expect("valid pattern"),
            ],
            serial,
        );
        self.pending_scans.push((cert, banner, ips.clone()));
        self.hosting.insert(
            domain.clone(),
            Hosting::Dedicated {
                operator: operator.to_string(),
            },
        );
        ips
    }

    /// Host `domain` on a tenant-exclusive cloud VM (the paper's
    /// `devA.com → devA-VM.ec2compute…` pattern). Returns the VM's public
    /// IP.
    pub fn host_cloud_vm(&mut self, provider: &str, tenant: &str, domain: &DomainName) -> Ipv4Addr {
        let serial = self.next_serial();
        let cloud = self.clouds.get_mut(provider).expect("cloud not registered");
        let ip = cloud.alloc_block.alloc().expect("cloud block exhausted");
        cloud.vm_count += 1;
        let vm_label = format!("{}-vm{}", domain.as_str().replace('.', "-"), cloud.vm_count);
        let vm_name = cloud.zone_suffix.child(&vm_label).expect("valid vm label");
        self.zones
            .insert_pool(vm_name.clone(), vec![ip], RotationPolicy::STABLE);
        self.zones.insert_cname(domain.clone(), vm_name);
        let cert = Certificate::new(
            vec![
                DomainPattern::Exact(domain.clone()),
                DomainPattern::parse(&format!("*.{}", domain.sld())).expect("valid pattern"),
            ],
            serial,
        );
        let banner = HttpsBanner::new(format!("{tenant}-cloud"), tenant);
        self.pending_scans.push((cert, banner, vec![ip]));
        self.hosting.insert(
            domain.clone(),
            Hosting::CloudVm {
                provider: provider.to_string(),
                tenant: tenant.to_string(),
            },
        );
        ip
    }

    /// Front `domain` through a CDN: `domain` CNAMEs to a dispatch name in
    /// the CDN zone, which resolves to rotating shared edge IPs.
    pub fn host_cdn(&mut self, provider: &str, domain: &DomainName) {
        let cdn = self.cdns.get_mut(provider).expect("cdn not registered");
        let dispatch_label = domain.as_str().replace('.', "-");
        let dispatch = cdn
            .zone_suffix
            .child(&dispatch_label)
            .expect("valid dispatch label");
        self.zones.insert_cname(domain.clone(), dispatch.clone());
        self.zones.insert_pool(
            dispatch,
            cdn.edges.clone(),
            RotationPolicy {
                active_count: cdn.active_per_name,
                period_secs: cdn.rotation_period_secs,
            },
        );
        cdn.tenants.push(domain.clone());
        self.hosting.insert(
            domain.clone(),
            Hosting::Cdn {
                provider: provider.to_string(),
            },
        );
    }

    /// Host a generic (non-IoT) service on its own pool in the generic
    /// superblock — `netflix.com`-alikes and public NTP servers. These
    /// are *dedicated* in the DNS sense but classified Generic at the
    /// domain level (§4.1), so they never become rules.
    pub fn host_generic(
        &mut self,
        domain: &DomainName,
        pool_size: u32,
        active: usize,
        rotation_period_secs: u64,
    ) -> Vec<Ipv4Addr> {
        let ips = self
            .generic_alloc
            .alloc_n(pool_size)
            .expect("generic space exhausted");
        self.zones.insert_pool(
            domain.clone(),
            ips.clone(),
            RotationPolicy {
                active_count: active,
                period_secs: rotation_period_secs,
            },
        );
        let serial = self.next_serial();
        let cert = Certificate::single(
            DomainPattern::parse(&format!("*.{}", domain.sld())).expect("valid pattern"),
            serial,
        );
        let banner = HttpsBanner::new("generic-web", domain.as_str());
        self.pending_scans.push((cert, banner, ips.clone()));
        self.hosting.insert(
            domain.clone(),
            Hosting::Dedicated {
                operator: "generic".to_string(),
            },
        );
        ips
    }

    /// Finalize: materialize the scan snapshot and AS registry.
    pub fn build(mut self) -> BackendUniverse {
        let mut scans = ScanDb::new();
        for (cert, banner, ips) in &self.pending_scans {
            for ip in ips {
                scans.insert(
                    *ip,
                    HostScan {
                        cert: cert.clone(),
                        banner: banner.clone(),
                        port: 443,
                    },
                );
            }
        }
        // CDN edges present one multi-tenant SAN certificate per CDN —
        // the shape the §4.2.2 matcher must reject.
        for (name, cdn) in &self.cdns {
            let mut names: Vec<DomainPattern> = cdn
                .tenants
                .iter()
                .map(|t| DomainPattern::Exact(t.clone()))
                .collect();
            names.push(
                DomainPattern::parse(&format!("*.{}", cdn.zone_suffix)).expect("valid pattern"),
            );
            let serial = self.cert_serial + 1_000;
            let cert = Certificate::new(names, serial);
            let banner = HttpsBanner::new(format!("{name}-edge"), name);
            for ip in &cdn.edges {
                scans.insert(
                    *ip,
                    HostScan {
                        cert: cert.clone(),
                        banner: banner.clone(),
                        port: 443,
                    },
                );
            }
        }

        let mut reg = AsRegistry::new();
        for (name, op) in &self.operators {
            let asn = Asn(self.next_asn);
            self.next_asn += 1;
            let prefixes = op
                .ips
                .iter()
                .map(|ip| Prefix4::new(*ip, 32).expect("/32 is valid"))
                .collect();
            reg.register(asn, name.clone(), AsCategory::Enterprise, prefixes);
        }
        for (name, cloud) in &self.clouds {
            let asn = Asn(self.next_asn);
            self.next_asn += 1;
            reg.register(asn, name.clone(), AsCategory::Cloud, vec![cloud.prefix]);
        }
        for (name, cdn) in &self.cdns {
            let asn = Asn(self.next_asn);
            self.next_asn += 1;
            reg.register(asn, name.clone(), AsCategory::Cdn, vec![cdn.prefix]);
        }
        reg.register(
            Asn(self.next_asn),
            "generic-web",
            AsCategory::Enterprise,
            vec![AddressPlan::generic()],
        );
        reg.finalize();

        BackendUniverse {
            zones: self.zones,
            scans,
            as_registry: reg,
            hosting: self.hosting,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haystack_dns::Resolver;
    use haystack_net::{SimTime, StudyWindow};

    fn d(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    fn universe() -> BackendUniverse {
        let mut b = UniverseBuilder::new();
        b.add_operator("deva");
        b.add_cloud("cloudnova", "ec2compute.cloudnova.com");
        b.add_cdn("akadns", "akadns.net", 32, 4, 3_600);
        b.host_dedicated("deva", &d("api.deva.com"), 8, 4, 3_600);
        b.host_cloud_vm("cloudnova", "devx", &d("iot.devx.com"));
        b.host_cdn("akadns", &d("devb.com"));
        b.host_cdn("akadns", &d("anothersite.com"));
        b.host_generic(&d("videostream.tv"), 16, 8, 3_600);
        b.build()
    }

    #[test]
    fn dedicated_domain_resolves_within_its_pool() {
        let u = universe();
        let r = Resolver::new(&u.zones);
        let res = r.resolve(&d("api.deva.com"), SimTime(0)).unwrap();
        assert_eq!(res.ips.len(), 4);
        assert!(res.chain.is_empty());
        assert!(res
            .ips
            .iter()
            .all(|ip| AddressPlan::dedicated().contains(*ip)));
    }

    #[test]
    fn cloud_vm_has_cname_and_exclusive_ip() {
        let u = universe();
        let r = Resolver::new(&u.zones);
        let res = r.resolve(&d("iot.devx.com"), SimTime(0)).unwrap();
        assert_eq!(res.chain.len(), 1);
        assert_eq!(res.ips.len(), 1);
        assert!(AddressPlan::cloud().contains(res.ips[0]));
        assert!(res
            .canonical
            .is_subdomain_of(&d("ec2compute.cloudnova.com")));
        // The cloud AS is registered with category Cloud.
        let info = u.as_registry.lookup(res.ips[0]).unwrap();
        assert_eq!(info.category, AsCategory::Cloud);
    }

    #[test]
    fn cdn_tenants_share_edges() {
        let u = universe();
        let r = Resolver::new(&u.zones);
        let full_b = r.full_pool(&d("devb.com")).unwrap();
        let full_other = r.full_pool(&d("anothersite.com")).unwrap();
        assert_eq!(full_b, full_other, "tenants share the same edge pool");
        assert!(full_b.iter().all(|ip| AddressPlan::cdn().contains(*ip)));
        let info = u.as_registry.lookup(full_b[0]).unwrap();
        assert_eq!(info.category, AsCategory::Cdn);
    }

    #[test]
    fn hosting_oracle() {
        let u = universe();
        assert!(u.is_dedicated(&d("api.deva.com")).unwrap());
        assert!(u.is_dedicated(&d("iot.devx.com")).unwrap());
        assert!(!u.is_dedicated(&d("devb.com")).unwrap());
        assert!(u.hosting_of(&d("nosuch.com")).is_none());
        assert_eq!(u.num_domains(), 5);
    }

    #[test]
    fn dedicated_scan_records_identify_the_domain() {
        let u = universe();
        let r = Resolver::new(&u.zones);
        let pool = r.full_pool(&d("api.deva.com")).unwrap();
        for ip in pool {
            assert!(u.scans.cert_at_ip_identifies(ip, &d("api.deva.com")));
        }
    }

    #[test]
    fn cdn_edge_cert_fails_match_criteria() {
        let u = universe();
        let r = Resolver::new(&u.zones);
        let edges = r.full_pool(&d("devb.com")).unwrap();
        // The SAN list spans tenants, so the §4.2.2 criteria reject it.
        assert!(!u.scans.cert_at_ip_identifies(edges[0], &d("devb.com")));
    }

    #[test]
    fn censys_expansion_recovers_cloud_pool() {
        let u = universe();
        let r = Resolver::new(&u.zones);
        let vm_ip = r.resolve(&d("iot.devx.com"), SimTime(0)).unwrap().ips[0];
        let expanded = u.scans.expand_domain(&d("iot.devx.com"), vm_ip).unwrap();
        assert_eq!(expanded.into_iter().collect::<Vec<_>>(), vec![vm_ip]);
    }

    #[test]
    fn operator_ips_register_as_enterprise() {
        let u = universe();
        let r = Resolver::new(&u.zones);
        let pool = r.full_pool(&d("api.deva.com")).unwrap();
        let info = u.as_registry.lookup(pool[0]).unwrap();
        assert_eq!(info.category, AsCategory::Enterprise);
        assert_eq!(info.name, "deva");
    }

    #[test]
    fn churn_visible_through_study_window() {
        // Over the idle window the rotating dedicated pool exposes more
        // IPs than any single resolution returns.
        let u = universe();
        let r = Resolver::new(&u.zones);
        let mut seen = std::collections::HashSet::new();
        for h in StudyWindow::FULL.hour_bins() {
            for ip in r.resolve(&d("api.deva.com"), h.start()).unwrap().ips {
                seen.insert(ip);
            }
        }
        assert!(
            seen.len() > 4,
            "rotation exposes more than one epoch's subset"
        );
        assert!(seen.len() <= 8);
    }
}
