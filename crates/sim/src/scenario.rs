//! The attack-phase campus scenario.
//!
//! Deploys APs, moves mobiles, generates scan/beacon traffic through the
//! discrete-event engine, filters every frame through the propagation
//! model and the sniffer's receiver chain, and returns the capture
//! database plus ground truth.

use crate::deploy::{Deployment, Rect};
use crate::engine::EventQueue;
use crate::link::LinkModel;
use crate::mobility::{RandomWaypoint, Trajectory};
use marauder_geo::Point;
use marauder_rf::components;
use marauder_rf::units::Db;
use marauder_wifi::active::BaitTransmitter;
use marauder_wifi::channel::CampusChannelMix;
use marauder_wifi::device::{AccessPoint, MobileStation, OsProfile, ScanBehavior};
use marauder_wifi::frame::Frame;
use marauder_wifi::mac::MacAddr;
use marauder_wifi::sniffer::{CaptureDatabase, CapturedFrame, Sniffer, SnifferCard};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Which link model the simulated world uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorldModel {
    /// Free-space with the calibrated campus margin — matches the
    /// attacker's disc assumption exactly (best case for the attack).
    FreeSpace,
    /// Log-distance with shadowing — a ragged, realistic world that the
    /// attacker still models as discs (the paper's real experiments).
    Campus,
}

/// Ground truth recorded at every scan event of every mobile.
#[derive(Debug, Clone, PartialEq)]
pub struct GroundTruthFix {
    /// Scan time, seconds.
    pub time_s: f64,
    /// The scanning mobile's *real* identity.
    pub mobile: MacAddr,
    /// The MAC the device put on the air at this time (differs from
    /// `mobile` when pseudonym rotation is enabled).
    pub wire_mac: MacAddr,
    /// Its true position.
    pub position: Point,
    /// The true communicable-AP set at that position.
    pub communicable: BTreeSet<MacAddr>,
}

/// Everything a scenario run produces.
#[derive(Debug)]
pub struct SimulationResult {
    /// The deployed access points (the attacker's "external knowledge"
    /// database is derived from these).
    pub aps: Vec<AccessPoint>,
    /// Frames the sniffer decoded.
    pub captures: CaptureDatabase,
    /// Per-scan ground truth.
    pub ground_truth: Vec<GroundTruthFix>,
    /// The environment margin the world applied (free-space worlds).
    pub environment_margin: Db,
    /// The sniffer position.
    pub sniffer_position: Point,
}

enum Payload {
    Scan(usize),
    Beacon(usize),
    BaitBurst,
}

/// A configurable campus scenario. Build with
/// [`CampusScenario::builder`]; see the [crate-level example](crate).
pub struct CampusScenario {
    seed: u64,
    region: Rect,
    deployment: Deployment,
    num_aps: usize,
    num_background_mobiles: usize,
    explicit_mobiles: Vec<(MobileStation, Box<dyn Trajectory>)>,
    duration_s: f64,
    world: WorldModel,
    sniffer_position: Point,
    environment_margin: Db,
    beacon_period_s: Option<f64>,
    channel_mix: CampusChannelMix,
    /// Channels the rig's cards are pinned to (default 1/6/11);
    /// numbers above 11 denote 802.11a channels.
    sniffer_channels: Vec<u8>,
    /// Fraction of APs operating in the 5 GHz 802.11a band.
    a_band_fraction: f64,
    /// Active attack: bait transmitter plus per-burst bite probability.
    active_attack: Option<(BaitTransmitter, f64)>,
    /// MAC pseudonym rotation period for all mobiles, seconds.
    pseudonym_rotation_s: Option<f64>,
}

impl std::fmt::Debug for CampusScenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CampusScenario")
            .field("seed", &self.seed)
            .field("num_aps", &self.num_aps)
            .field("num_background_mobiles", &self.num_background_mobiles)
            .field("explicit_mobiles", &self.explicit_mobiles.len())
            .field("duration_s", &self.duration_s)
            .field("world", &self.world)
            .finish_non_exhaustive()
    }
}

/// Builder for [`CampusScenario`].
pub struct CampusScenarioBuilder {
    inner: CampusScenario,
}

impl CampusScenario {
    /// Starts building a scenario with paper-like defaults: a 1 km²
    /// campus, 80 uniformly deployed APs, the three-card LNA rig at the
    /// center, free-space world with the calibrated margin.
    pub fn builder() -> CampusScenarioBuilder {
        CampusScenarioBuilder {
            inner: CampusScenario {
                seed: 1,
                region: Rect::centered_square(500.0),
                deployment: Deployment::Uniform,
                num_aps: 80,
                num_background_mobiles: 0,
                explicit_mobiles: Vec::new(),
                duration_s: 300.0,
                world: WorldModel::FreeSpace,
                sniffer_position: Point::ORIGIN,
                environment_margin: Db::new(components::CAMPUS_ENVIRONMENT_MARGIN_DB),
                beacon_period_s: Some(30.0),
                channel_mix: CampusChannelMix::uml(),
                sniffer_channels: vec![1, 6, 11],
                a_band_fraction: 0.0,
                active_attack: None,
                pseudonym_rotation_s: None,
            },
        }
    }

    /// The simulated region.
    pub fn region(&self) -> Rect {
        self.region
    }

    /// Builds the link model matching this scenario's world.
    pub fn link_model(&self) -> LinkModel {
        match self.world {
            WorldModel::FreeSpace => LinkModel::free_space(self.environment_margin),
            WorldModel::Campus => LinkModel::campus(self.seed ^ 0x5eed),
        }
    }

    /// Runs the scenario, returning captures and ground truth.
    pub fn run(&self) -> SimulationResult {
        self.run_with(|_| {})
    }

    /// Runs the scenario, invoking `on_frame` on every frame the
    /// sniffer decodes, at the moment it is decoded — the live
    /// frame-source adapter for the streaming engine
    /// (`marauder-stream`), which tracks in real time instead of
    /// post-processing the returned database.
    ///
    /// The callback sees exactly the frames that end up in
    /// [`SimulationResult::captures`], in the same order, so feeding
    /// them to a stream consumer is equivalent to iterating the
    /// database afterwards.
    pub fn run_with(&self, mut on_frame: impl FnMut(&CapturedFrame)) -> SimulationResult {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut aps =
            self.deployment
                .generate(self.num_aps, self.region, &self.channel_mix, &mut rng);
        if self.a_band_fraction > 0.0 {
            use marauder_wifi::channel::Channel;
            let a_channels: Vec<Channel> = Channel::all_a().collect();
            for ap in &mut aps {
                if rng.gen_range(0.0..1.0) < self.a_band_fraction {
                    ap.channel = a_channels[rng.gen_range(0..a_channels.len())];
                }
            }
        }
        let aps = aps;
        let link = self.link_model();

        // The paper's rig: HyperLink antenna + LNA + splitter + SRC
        // cards pinned to the configured channels (default 1/6/11; a
        // wider rig gets a correspondingly bigger splitter).
        let ways = (self.sniffer_channels.len() as u32).max(4);
        let splitter = if ways == 4 {
            components::HYPERLINK_SPLITTER_4WAY
        } else {
            marauder_rf::chain::Splitter {
                name: "lab splitter",
                ways,
                excess_loss_db: 0.5 + 0.1 * ways as f64,
            }
        };
        let chain = marauder_rf::chain::ReceiverChain::builder()
            .antenna(components::HYPERLINK_HG2415U)
            .lna(components::RF_LAMBDA_LNA)
            .splitter(splitter)
            .nic(components::UBIQUITI_SRC)
            .build();
        let margin = match self.world {
            WorldModel::FreeSpace => self.environment_margin,
            WorldModel::Campus => Db::new(0.0),
        };
        let mut sniffer = Sniffer::new(self.sniffer_position, chain, margin);
        for &ch in &self.sniffer_channels {
            let channel = if ch <= 11 {
                // lint:allow(no-panic-in-lib) -- sniffer_channels is operator config; a bad list is a setup error
                marauder_wifi::channel::Channel::bg(ch).expect("sniffer channels 1-11 are b/g")
            } else {
                marauder_wifi::channel::Channel::a(ch)
                    // lint:allow(no-panic-in-lib) -- sniffer_channels is operator config; a bad list is a setup error
                    .expect("sniffer channels above 11 must be valid 802.11a channels")
            };
            sniffer.add_card(SnifferCard::fixed(format!("NIC{ch}"), channel));
        }
        // The propagation model the *world* applies to sniffer links.
        let world_model: Box<dyn marauder_rf::propagation::PropagationModel> = match self.world {
            WorldModel::FreeSpace => Box::new(marauder_rf::propagation::FreeSpace),
            WorldModel::Campus => Box::new(marauder_rf::propagation::LogDistance::campus(
                self.seed ^ 0x5eed,
            )),
        };

        // Assemble the mobile population: explicit victims first, then
        // background devices on random-waypoint paths.
        let background: Vec<(MobileStation, RandomWaypoint)> = (0..self.num_background_mobiles)
            .map(|i| {
                let os = match i % 5 {
                    0 => OsProfile::WindowsXp,
                    1 => OsProfile::WindowsVista,
                    2 => OsProfile::MacOs,
                    3 => OsProfile::Linux,
                    _ => OsProfile::Embedded,
                };
                let mut m = MobileStation::new(MacAddr::from_index(0xB0_0000 + i as u64), os);
                // Every real device remembers networks; some remember the
                // ubiquitous default SSIDs the active attack baits with.
                let pool = [
                    "linksys",
                    "default",
                    "NETGEAR",
                    "eduroam",
                    "campus-guest",
                    "home-net",
                    "coffee-shop",
                ];
                let n_pref = 1 + (i % 3);
                for k in 0..n_pref {
                    let name = pool[(i * 3 + k * 2) % pool.len()];
                    // lint:allow(no-panic-in-lib) -- pool entries are short const SSID names
                    m = m.with_preferred(marauder_wifi::ssid::Ssid::new(name).expect("short ssid"));
                }
                let t = RandomWaypoint::new(self.region, 1.4, self.duration_s, &mut rng);
                (m, t)
            })
            .collect();
        let mut mobiles: Vec<(&MobileStation, &dyn Trajectory)> = Vec::new();
        for (m, t) in &self.explicit_mobiles {
            mobiles.push((m, t.as_ref()));
        }
        for (m, t) in &background {
            mobiles.push((m, t));
        }

        let mut queue: EventQueue<Payload> = EventQueue::new();
        for (i, (m, _)) in mobiles.iter().enumerate() {
            if let ScanBehavior::Active { interval_s, .. } = m.behavior {
                let phase = rng.gen_range(0.0..interval_s.min(self.duration_s));
                queue.schedule(phase, Payload::Scan(i));
            }
        }
        if let Some(period) = self.beacon_period_s {
            for (i, _) in aps.iter().enumerate() {
                queue.schedule(rng.gen_range(0.0..period), Payload::Beacon(i));
            }
        }
        if let Some((bait, _)) = &self.active_attack {
            queue.schedule(
                rng.gen_range(0.0..bait.burst_interval_s),
                Payload::BaitBurst,
            );
        }

        let mut captures = CaptureDatabase::new();
        let mut ground_truth = Vec::new();
        let mut seq: u16 = 0;

        // The MAC a mobile puts on the air at time `t`.
        let wire_mac = |mobile: &MobileStation, t: f64| -> MacAddr {
            match self.pseudonym_rotation_s {
                Some(period) => mobile.mac.pseudonym((t / period).floor() as u32),
                None => mobile.mac,
            }
        };

        // One full active scan by `mobile` at time `t`: ground truth fix,
        // channel-sweeping probes, and every in-range AP's response.
        macro_rules! simulate_scan {
            ($mobile:expr, $traj:expr, $t:expr) => {{
                let mobile: &MobileStation = $mobile;
                let pos = $traj.position($t);
                let mac = wire_mac(mobile, $t);
                let communicable = link.communicable_set(mobile, pos, &aps);
                ground_truth.push(GroundTruthFix {
                    time_s: $t,
                    mobile: mobile.mac,
                    wire_mac: mac,
                    position: pos,
                    communicable,
                });
                let directed =
                    matches!(mobile.behavior, ScanBehavior::Active { directed: true, .. });
                // The scan sweeps all b/g channels (and, for dual-band
                // campuses, the 802.11a channels); one wildcard probe per
                // channel plus directed probes for preferred nets.
                let scan_channels: Vec<marauder_wifi::channel::Channel> =
                    marauder_wifi::channel::Channel::all_bg()
                        .chain(if self.a_band_fraction > 0.0 {
                            marauder_wifi::channel::Channel::all_a().collect::<Vec<_>>()
                        } else {
                            Vec::new()
                        })
                        .collect();
                for channel in scan_channels {
                    seq = seq.wrapping_add(1);
                    let probe = Frame {
                        channel,
                        ..Frame::probe_request(mac, None, 1)
                    }
                    .with_sequence(seq);
                    if let Some(rec) = sniffer.observe(
                        pos,
                        &mobile.transmitter(),
                        &probe,
                        $t,
                        world_model.as_ref(),
                        &mut rng,
                    ) {
                        on_frame(&rec);
                        captures.push(rec);
                    }
                    if directed {
                        for ssid in &mobile.preferred {
                            seq = seq.wrapping_add(1);
                            let p = Frame {
                                channel,
                                ..Frame::probe_request(mac, Some(ssid.clone()), 1)
                            }
                            .with_sequence(seq);
                            if let Some(rec) = sniffer.observe(
                                pos,
                                &mobile.transmitter(),
                                &p,
                                $t,
                                world_model.as_ref(),
                                &mut rng,
                            ) {
                                on_frame(&rec);
                                captures.push(rec);
                            }
                        }
                    }
                }
                // Every AP that heard the probe responds on its own channel.
                for ap in &aps {
                    if link.ap_hears_mobile(mobile, pos, ap) {
                        seq = seq.wrapping_add(1);
                        let resp =
                            Frame::probe_response(ap.bssid, mac, ap.ssid.clone(), ap.channel)
                                .with_sequence(seq);
                        if let Some(rec) = sniffer.observe(
                            ap.location,
                            &ap.transmitter(),
                            &resp,
                            $t + 0.01,
                            world_model.as_ref(),
                            &mut rng,
                        ) {
                            on_frame(&rec);
                            captures.push(rec);
                        }
                    }
                }
            }};
        }

        while let Some(ev) = queue.pop() {
            if ev.time > self.duration_s {
                break;
            }
            match ev.payload {
                Payload::Scan(i) => {
                    let (mobile, traj) = mobiles[i];
                    simulate_scan!(mobile, traj, ev.time);
                    if let ScanBehavior::Active { interval_s, .. } = mobile.behavior {
                        let next = ev.time + interval_s;
                        if next <= self.duration_s {
                            queue.schedule(next, Payload::Scan(i));
                        }
                    }
                }
                Payload::BaitBurst => {
                    let (bait, hit_p) = self
                        .active_attack
                        .as_ref()
                        // lint:allow(no-panic-in-lib) -- BaitBurst events are only scheduled when active_attack is Some
                        .expect("bait event implies active attack");
                    // The sniffer's own capture of the bait frames is
                    // uninteresting; what matters is which stations bite
                    // and thereby expose themselves with a full scan.
                    for &(mobile, traj) in &mobiles {
                        if let Some(ssid) = bait.bites(mobile, *hit_p, &mut rng) {
                            // The join attempt: open-system auth plus an
                            // association request to the bait BSSID …
                            let pos = traj.position(ev.time);
                            let mac = wire_mac(mobile, ev.time);
                            // Channel 6 is the middle non-overlapping b/g channel.
                            let ch = marauder_wifi::channel::Channel::non_overlapping_bg()[1];
                            for frame in [
                                Frame::authentication(mac, bait.mac(), bait.mac(), 1, ch),
                                Frame::association_request(mac, bait.mac(), ssid, ch),
                            ] {
                                seq = seq.wrapping_add(1);
                                if let Some(rec) = sniffer.observe(
                                    pos,
                                    &mobile.transmitter(),
                                    &frame.with_sequence(seq),
                                    ev.time + 0.05,
                                    world_model.as_ref(),
                                    &mut rng,
                                ) {
                                    on_frame(&rec);
                                    captures.push(rec);
                                }
                            }
                            // … preceded by the join-time scan that gives
                            // the localization component its Γ set.
                            simulate_scan!(mobile, traj, ev.time + 0.1);
                        }
                    }
                    let next = ev.time + bait.burst_interval_s;
                    if next <= self.duration_s {
                        queue.schedule(next, Payload::BaitBurst);
                    }
                }
                Payload::Beacon(i) => {
                    let ap = &aps[i];
                    seq = seq.wrapping_add(1);
                    let beacon =
                        Frame::beacon(ap.bssid, ap.ssid.clone(), ap.channel, ap.beacon_interval_tu)
                            .with_sequence(seq);
                    if let Some(rec) = sniffer.observe(
                        ap.location,
                        &ap.transmitter(),
                        &beacon,
                        ev.time,
                        world_model.as_ref(),
                        &mut rng,
                    ) {
                        on_frame(&rec);
                        captures.push(rec);
                    }
                    // lint:allow(no-panic-in-lib) -- Beacon events are only scheduled when beacon_period_s is Some
                    let period = self.beacon_period_s.expect("beacon event implies period");
                    let next = ev.time + period;
                    if next <= self.duration_s {
                        queue.schedule(next, Payload::Beacon(i));
                    }
                }
            }
        }

        SimulationResult {
            aps,
            captures,
            ground_truth,
            environment_margin: self.environment_margin,
            sniffer_position: self.sniffer_position,
        }
    }
}

impl CampusScenarioBuilder {
    /// Sets the RNG seed (default 1).
    pub fn seed(mut self, seed: u64) -> Self {
        self.inner.seed = seed;
        self
    }

    /// Sets the square region half-width in meters (default 500).
    pub fn region_half_width(mut self, hw: f64) -> Self {
        self.inner.region = Rect::centered_square(hw);
        self
    }

    /// Sets the number of APs (default 80).
    pub fn num_aps(mut self, n: usize) -> Self {
        self.inner.num_aps = n;
        self
    }

    /// Sets the AP deployment (default uniform).
    pub fn deployment(mut self, d: Deployment) -> Self {
        self.inner.deployment = d;
        self
    }

    /// Sets the number of auto-generated background mobiles (default 0).
    pub fn num_mobiles(mut self, n: usize) -> Self {
        self.inner.num_background_mobiles = n;
        self
    }

    /// Adds an explicit mobile with a trajectory (e.g. the victim).
    pub fn mobile(mut self, station: MobileStation, trajectory: Box<dyn Trajectory>) -> Self {
        self.inner.explicit_mobiles.push((station, trajectory));
        self
    }

    /// Sets the scenario duration in seconds (default 300).
    pub fn duration_s(mut self, d: f64) -> Self {
        self.inner.duration_s = d;
        self
    }

    /// Selects the world model (default free space).
    pub fn world(mut self, w: WorldModel) -> Self {
        self.inner.world = w;
        self
    }

    /// Moves the sniffer (default origin).
    pub fn sniffer_position(mut self, p: Point) -> Self {
        self.inner.sniffer_position = p;
        self
    }

    /// Sets the AP beacon period, or disables beacons with `None`
    /// (default 30 s).
    pub fn beacon_period_s(mut self, p: Option<f64>) -> Self {
        self.inner.beacon_period_s = p;
        self
    }

    /// Pins the rig's cards to the given b/g channels (default
    /// `[1, 6, 11]`). Used by the card-count ablation: 11 cards cover
    /// every channel, the folklore `[3, 6, 9]` covers almost nothing
    /// off-channel (Fig. 9).
    ///
    /// # Panics
    ///
    /// The later [`build`](Self::build) panics when empty.
    pub fn sniffer_channels(mut self, channels: Vec<u8>) -> Self {
        self.inner.sniffer_channels = channels;
        self
    }

    /// Sets the fraction (0-1) of APs operating on 802.11a channels
    /// (default 0). Dual-band clients then also sweep the 5 GHz band.
    ///
    /// # Panics
    ///
    /// Panics outside `[0, 1]`.
    pub fn a_band_fraction(mut self, f: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&f),
            "fraction must be in [0, 1], got {f}"
        );
        self.inner.a_band_fraction = f;
        self
    }

    /// Enables the active attack: the adversary transmits `bait` bursts
    /// and every station with a matching preferred network bites with
    /// probability `hit_probability` per burst (modelling scan timing).
    pub fn active_attack(mut self, bait: BaitTransmitter, hit_probability: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&hit_probability),
            "hit probability must be within [0, 1], got {hit_probability}"
        );
        self.inner.active_attack = Some((bait, hit_probability));
        self
    }

    /// Makes every mobile rotate its MAC pseudonym with the given period
    /// (the privacy defense the paper's Section I discusses defeating via
    /// implicit identifiers).
    pub fn pseudonym_rotation_s(mut self, period: f64) -> Self {
        assert!(period > 0.0, "rotation period must be positive");
        self.inner.pseudonym_rotation_s = Some(period);
        self
    }

    /// Finishes the builder.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive duration or zero APs.
    pub fn build(self) -> CampusScenario {
        assert!(self.inner.duration_s > 0.0, "duration must be positive");
        assert!(self.inner.num_aps > 0, "a campus needs at least one AP");
        assert!(
            !self.inner.sniffer_channels.is_empty(),
            "the rig needs at least one card"
        );
        self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mobility::CircuitWalk;

    fn quick() -> CampusScenarioBuilder {
        CampusScenario::builder()
            .seed(3)
            .num_aps(40)
            .duration_s(120.0)
            .beacon_period_s(None)
    }

    #[test]
    fn run_produces_captures_and_truth() {
        let scenario = quick().num_mobiles(4).build();
        let result = scenario.run();
        assert_eq!(result.aps.len(), 40);
        assert!(!result.captures.is_empty());
        assert!(!result.ground_truth.is_empty());
        // Probing mobiles appear in the capture database.
        assert!(!result.captures.probing_mobiles().is_empty());
    }

    #[test]
    fn run_with_streams_exactly_the_captured_frames() {
        let scenario = quick().num_mobiles(3).build();
        let mut streamed: Vec<CapturedFrame> = Vec::new();
        let result = scenario.run_with(|f| streamed.push(f.clone()));
        assert_eq!(streamed.len(), result.captures.len());
        for (live, stored) in streamed.iter().zip(result.captures.iter()) {
            assert_eq!(live, stored, "live feed must mirror the database");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = quick().num_mobiles(3).build().run();
        let b = quick().num_mobiles(3).build().run();
        assert_eq!(a.captures.len(), b.captures.len());
        assert_eq!(a.ground_truth, b.ground_truth);
    }

    #[test]
    fn different_seeds_differ() {
        let a = quick().num_mobiles(3).build().run();
        let b = quick().seed(99).num_mobiles(3).build().run();
        assert_ne!(a.ground_truth, b.ground_truth);
    }

    #[test]
    fn explicit_victim_is_tracked() {
        let victim = MobileStation::new(MacAddr::from_index(0xFFFF), OsProfile::MacOs);
        let mac = victim.mac;
        // Seed swept so the AP draw puts coverage on the victim's circuit.
        let scenario = quick()
            .seed(4)
            .mobile(
                victim,
                Box::new(CircuitWalk::new(Point::ORIGIN, 150.0, 1.4)),
            )
            .build();
        let result = scenario.run();
        let fixes: Vec<_> = result
            .ground_truth
            .iter()
            .filter(|f| f.mobile == mac)
            .collect();
        assert!(!fixes.is_empty());
        // The victim walks a 150 m circle: all fixes at radius 150.
        for f in &fixes {
            assert!((f.position.distance(Point::ORIGIN) - 150.0).abs() < 1e-6);
        }
        // Its communicable sets are non-empty (dense campus).
        assert!(fixes.iter().any(|f| !f.communicable.is_empty()));
        // And the sniffer saw its probe responses.
        assert!(!result.captures.communicable_aps(mac).is_empty());
    }

    #[test]
    fn captured_sets_subset_of_truth_free_space() {
        // Under free space, every AP the sniffer saw responding to the
        // mobile must be communicable in ground truth (the sniffer can
        // only miss, never invent).
        let victim = MobileStation::new(MacAddr::from_index(0xABCD), OsProfile::Linux);
        let mac = victim.mac;
        let scenario = quick()
            .mobile(
                victim,
                Box::new(CircuitWalk::new(Point::ORIGIN, 100.0, 1.4)),
            )
            .build();
        let result = scenario.run();
        for fix in result.ground_truth.iter().filter(|f| f.mobile == mac) {
            let captured =
                result
                    .captures
                    .communicable_aps_in_window(mac, fix.time_s - 0.5, fix.time_s + 0.5);
            for ap in &captured {
                assert!(
                    fix.communicable.contains(ap),
                    "sniffer invented AP {ap} at t={}",
                    fix.time_s
                );
            }
        }
    }

    #[test]
    fn beacons_reveal_aps() {
        let scenario = quick().beacon_period_s(Some(10.0)).build();
        let result = scenario.run();
        assert!(!result.captures.access_points().is_empty());
    }

    #[test]
    fn quiet_devices_are_invisible() {
        let quiet = MobileStation::new(MacAddr::from_index(0xDEAD), OsProfile::Linux)
            .with_behavior(ScanBehavior::Quiet);
        let mac = quiet.mac;
        let scenario = quick()
            .mobile(quiet, Box::new(CircuitWalk::new(Point::ORIGIN, 50.0, 1.4)))
            .build();
        let result = scenario.run();
        assert!(!result.captures.mobiles().contains(&mac));
        assert!(result.ground_truth.iter().all(|f| f.mobile != mac));
    }

    #[test]
    #[should_panic(expected = "duration must be positive")]
    fn bad_duration_panics() {
        let _ = CampusScenario::builder().duration_s(0.0).build();
    }

    #[test]
    fn campus_world_runs() {
        let scenario = quick().world(WorldModel::Campus).num_mobiles(2).build();
        let result = scenario.run();
        assert!(!result.ground_truth.is_empty());
    }

    #[test]
    fn active_attack_exposes_passive_devices() {
        use marauder_wifi::active::BaitTransmitter;
        use marauder_wifi::ssid::Ssid;
        // A passive (non-probing) device that remembers "linksys".
        let quiet_one = MobileStation::new(MacAddr::from_index(0x5A5A), OsProfile::Embedded)
            .with_preferred(Ssid::new("linksys").unwrap());
        let mac = quiet_one.mac;

        // Without the active attack, the sniffer never sees it.
        let passive_run = quick()
            .mobile(
                quiet_one.clone(),
                Box::new(CircuitWalk::new(Point::ORIGIN, 80.0, 1.4)),
            )
            .build()
            .run();
        assert!(!passive_run.captures.mobiles().contains(&mac));

        // With bait, it bites and becomes trackable.
        let active_run = quick()
            .mobile(
                quiet_one,
                Box::new(CircuitWalk::new(Point::ORIGIN, 80.0, 1.4)),
            )
            .active_attack(BaitTransmitter::with_popular_ssids(), 0.8)
            .build()
            .run();
        assert!(
            active_run.captures.mobiles().contains(&mac),
            "bait failed to expose the passive device"
        );
        // And its communicable sets were captured for localization.
        assert!(!active_run.captures.communicable_aps(mac).is_empty());
    }

    #[test]
    fn active_attack_increases_visible_population() {
        use marauder_wifi::active::BaitTransmitter;
        let base = quick().num_mobiles(10).build().run();
        let active = quick()
            .num_mobiles(10)
            .active_attack(BaitTransmitter::with_popular_ssids(), 0.8)
            .build()
            .run();
        assert!(
            active.captures.mobiles().len() >= base.captures.mobiles().len(),
            "active attack lost devices: {} < {}",
            active.captures.mobiles().len(),
            base.captures.mobiles().len()
        );
    }

    #[test]
    fn pseudonym_rotation_changes_wire_macs() {
        let victim = MobileStation::new(MacAddr::from_index(0xAAA), OsProfile::Linux);
        let mac = victim.mac;
        let result = quick()
            .mobile(victim, Box::new(CircuitWalk::new(Point::ORIGIN, 80.0, 1.4)))
            .pseudonym_rotation_s(60.0)
            .build()
            .run();
        let wire_macs: std::collections::BTreeSet<MacAddr> = result
            .ground_truth
            .iter()
            .filter(|g| g.mobile == mac)
            .map(|g| g.wire_mac)
            .collect();
        assert!(
            wire_macs.len() >= 2,
            "rotation produced {} macs",
            wire_macs.len()
        );
        // None of them is the real MAC; all are locally administered.
        for w in &wire_macs {
            assert_ne!(*w, mac);
            assert!(w.is_locally_administered());
        }
        // The real MAC never appears in the capture.
        assert!(!result.captures.mobiles().contains(&mac));
        // But the pseudonyms do.
        assert!(wire_macs
            .iter()
            .any(|w| result.captures.mobiles().contains(w)));
    }

    #[test]
    fn a_band_aps_need_a_band_cards() {
        // 40% of APs on 5 GHz; the default b/g rig misses them. Seed
        // swept so the 5 GHz population is big enough for a clear gap.
        let bg_only = quick()
            .seed(13)
            .num_mobiles(4)
            .a_band_fraction(0.4)
            .build()
            .run();
        let a_aps: usize = bg_only
            .aps
            .iter()
            .filter(|ap| ap.channel.number() > 11)
            .count();
        assert!(a_aps > 5, "expected a 5 GHz population, got {a_aps}");
        let heard_a = |result: &SimulationResult| {
            result
                .captures
                .iter()
                .filter(|r| r.frame.channel.number() > 11)
                .count()
        };
        assert_eq!(heard_a(&bg_only), 0, "b/g rig cannot decode 5 GHz");

        // Adding 12 A-band cards (the paper's "support for 802.11a
        // requires 12 cards") brings them in.
        let mut channels: Vec<u8> = vec![1, 6, 11];
        channels.extend(marauder_wifi::channel::A_CHANNELS);
        let dual = quick()
            .seed(13)
            .num_mobiles(4)
            .a_band_fraction(0.4)
            .sniffer_channels(channels)
            .build()
            .run();
        assert!(heard_a(&dual) > 0, "dual-band rig must hear 5 GHz traffic");
        // And it hears strictly more APs overall.
        assert!(dual.captures.access_points().len() > bg_only.captures.access_points().len());
    }

    #[test]
    fn without_rotation_wire_mac_is_real_mac() {
        let result = quick().num_mobiles(2).build().run();
        for g in &result.ground_truth {
            assert_eq!(g.mobile, g.wire_mac);
        }
    }
}
