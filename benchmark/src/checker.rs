//! Output checker, independent of the program's own verification path.
//!
//! Block hashes, signing digests and Merkle roots are recomputed here
//! from the byte layouts the chain documents (header fields big-endian,
//! Merkle leaves tagged `0x00`, interior nodes `0x01`, an odd node paired
//! with itself), so a bug in `nwade-chain`'s hashing or in Algorithm 1
//! cannot hide itself. Conflict-freedom is checked pairwise from every
//! plan's own zone occupancy, not from any scheduler table.

use nwade_aim::{occupancy_of, TravelPlan};
use nwade_chain::Block;
use nwade_crypto::{Digest, Sha256, SignatureScheme};
use nwade_geometry::TimeInterval;
use nwade_intersection::{Topology, ZoneId};
use nwade_traffic::VehicleId;
use std::collections::{HashMap, HashSet, VecDeque};

fn put_header(h: Sha256, b: &Block) -> Sha256 {
    let mut h = h
        .chain(&b.index().to_be_bytes())
        .chain(b.prev_hash().as_bytes())
        .chain(&b.timestamp().to_bits().to_be_bytes())
        .chain(b.merkle_root().as_bytes())
        .chain(&(b.anchors().len() as u16).to_be_bytes());
    for a in b.anchors() {
        h = h.chain(&a.shard.to_be_bytes()).chain(a.tip.as_bytes());
    }
    h
}

/// The digest the IM signs: `SHA-256(index ‖ prev ‖ τ ‖ root ‖ anchors)`.
pub fn signing_digest(b: &Block) -> Digest {
    put_header(Sha256::new(), b).finalize()
}

/// The hash the next block must link to: `SHA-256(sig ‖ header)`.
pub fn block_hash(b: &Block) -> Digest {
    put_header(Sha256::new().chain(b.signature()), b).finalize()
}

/// Merkle root over the plans' canonical encodings.
pub fn merkle_root(plans: &[TravelPlan]) -> Option<Digest> {
    let mut level: Vec<Digest> = plans
        .iter()
        .map(|p| Sha256::new().chain(&[0x00]).chain(&p.encode()).finalize())
        .collect();
    if level.is_empty() {
        return None;
    }
    while level.len() > 1 {
        level = level
            .chunks(2)
            .map(|pair| {
                let right = pair.get(1).unwrap_or(&pair[0]);
                Sha256::new()
                    .chain(&[0x01])
                    .chain(pair[0].as_bytes())
                    .chain(right.as_bytes())
                    .finalize()
            })
            .collect();
    }
    Some(level[0])
}

/// Checks one block on its own and against its predecessor.
///
/// # Errors
///
/// Returns why the block is rejected.
pub fn check_block(
    prev: Option<&Block>,
    block: &Block,
    key: &dyn SignatureScheme,
) -> Result<(), String> {
    let i = block.index();
    match merkle_root(block.plans()) {
        None => return Err(format!("block {i}: no plans")),
        Some(root) if root != block.merkle_root() => {
            return Err(format!("block {i}: Merkle root does not match its plans"))
        }
        Some(_) => {}
    }
    if let Some(prev) = prev {
        if i != prev.index() + 1 {
            return Err(format!("block {i}: follows block {}", prev.index()));
        }
        if block.prev_hash() != block_hash(prev) {
            return Err(format!("block {i}: previous hash does not link"));
        }
        if block.timestamp() < prev.timestamp() {
            return Err(format!("block {i}: timestamp runs backwards"));
        }
    } else if i != 0 {
        return Err(format!("chain starts at block {i}, not 0"));
    }
    if !key.verify(&signing_digest(block), block.signature()) {
        return Err(format!(
            "block {i}: signature does not verify under the IM key"
        ));
    }
    Ok(())
}

fn overlaps(a: &TimeInterval, b: &TimeInterval) -> bool {
    a.start < b.end && b.start < a.end
}

/// Live plans of one shard, indexed by zone. A plan is live from its
/// block until a later block re-plans the same vehicle or its block
/// leaves the `window` most recent blocks (the vehicles' chain cache).
pub struct ConflictChecker<'t> {
    topo: &'t Topology,
    window: usize,
    off_plan: HashSet<VehicleId>,
    by_zone: HashMap<ZoneId, Vec<(VehicleId, TimeInterval)>>,
    live: HashMap<VehicleId, (u64, Vec<ZoneId>)>,
    recent: VecDeque<(u64, Vec<VehicleId>)>,
}

impl<'t> ConflictChecker<'t> {
    /// `off_plan` vehicles (attackers and self-evacuating vehicles) are
    /// skipped, as Algorithm 1 skips known threats: the IM may legitimately
    /// schedule across their abandoned plans.
    pub fn new(topo: &'t Topology, window: usize, off_plan: HashSet<VehicleId>) -> Self {
        ConflictChecker {
            topo,
            window,
            off_plan,
            by_zone: HashMap::new(),
            live: HashMap::new(),
            recent: VecDeque::new(),
        }
    }

    fn retire(&mut self, vehicle: VehicleId) {
        if let Some((_, zones)) = self.live.remove(&vehicle) {
            for z in zones {
                if let Some(list) = self.by_zone.get_mut(&z) {
                    list.retain(|(v, _)| *v != vehicle);
                }
            }
        }
    }

    /// Adds `block`'s plans to the live set.
    ///
    /// # Errors
    ///
    /// Returns the first pair of live plans of different vehicles whose
    /// occupancies overlap in a zone.
    pub fn admit(&mut self, block: &Block) -> Result<(), String> {
        let index = block.index();
        while self
            .recent
            .front()
            .is_some_and(|(i, _)| index >= *i + self.window as u64)
        {
            let (old, vehicles) = self.recent.pop_front().expect("front exists");
            for v in vehicles {
                if self.live.get(&v).is_some_and(|(i, _)| *i == old) {
                    self.retire(v);
                }
            }
        }
        // A vehicle re-planned in this block drops its older plan first,
        // as Algorithm 1 merges the block over the cached plans.
        for plan in block.plans() {
            self.retire(plan.id());
        }
        let mut admitted = Vec::new();
        for plan in block.plans() {
            let v = plan.id();
            if self.off_plan.contains(&v) {
                continue;
            }
            let occupancy = occupancy_of(self.topo.movement(plan.movement()), plan.profile());
            for (zone, iv) in &occupancy {
                if let Some((other, o_iv)) = self
                    .by_zone
                    .get(zone)
                    .and_then(|list| list.iter().find(|(o, o_iv)| *o != v && overlaps(iv, o_iv)))
                {
                    let from = self.live.get(other).map_or(0, |(i, _)| *i);
                    return Err(format!(
                        "block {index}: plan of vehicle {v} [{:.2}, {:.2}] overlaps the plan of \
                         {other} [{:.2}, {:.2}] from block {from} in zone {zone:?}",
                        iv.start, iv.end, o_iv.start, o_iv.end
                    ));
                }
            }
            let mut zones = Vec::with_capacity(occupancy.len());
            for (zone, iv) in occupancy {
                self.by_zone.entry(zone).or_default().push((v, iv));
                zones.push(zone);
            }
            self.live.insert(v, (index, zones));
            admitted.push(v);
        }
        self.recent.push_back((index, admitted));
        Ok(())
    }
}

/// Outcome of checking one shard's chain.
#[derive(Debug, Default)]
pub struct ChainVerdict {
    /// Blocks checked.
    pub blocks: usize,
    /// Blocks that failed the hash, Merkle or signature check.
    pub rejected: Vec<String>,
    /// The first conflict between live plans, if any.
    pub conflict: Option<String>,
}

/// Checks a whole chain: links, Merkle roots, signatures, conflicts.
pub fn check_chain(
    blocks: &[Block],
    key: &dyn SignatureScheme,
    topo: &Topology,
    window: usize,
    off_plan: HashSet<VehicleId>,
) -> ChainVerdict {
    let mut verdict = ChainVerdict {
        blocks: blocks.len(),
        ..ChainVerdict::default()
    };
    let mut conflicts = ConflictChecker::new(topo, window, off_plan);
    let mut prev: Option<&Block> = None;
    for block in blocks {
        if let Err(e) = check_block(prev, block, key) {
            verdict.rejected.push(e);
        }
        if let Err(e) = conflicts.admit(block) {
            verdict.conflict.get_or_insert(e);
        }
        prev = Some(block);
    }
    verdict
}

/// Feeds the checker a valid chain and three corruptions of it: a
/// flipped plan byte, a wrong previous hash, and an overlapping plan
/// pair. Every corruption must be rejected and the valid chain accepted.
///
/// # Errors
///
/// Returns which case the checker got wrong.
pub fn self_test() -> Result<(), String> {
    use nwade_aim::{PlanRequest, ReservationScheduler, Scheduler, SchedulerConfig};
    use nwade_chain::BlockPackager;
    use nwade_crypto::MockScheme;
    use nwade_intersection::{build, GeometryConfig, IntersectionKind};
    use nwade_traffic::VehicleDescriptor;
    use std::sync::Arc;

    let topo = Arc::new(build(
        IntersectionKind::FourWayCross,
        &GeometryConfig::default(),
    ));
    let key: Arc<dyn SignatureScheme> = Arc::new(MockScheme::from_seed(7));
    let mut scheduler = ReservationScheduler::new(topo.clone(), SchedulerConfig::default());
    let mut packager = BlockPackager::new(key.clone());
    let request = |id: u64, m: usize| PlanRequest {
        id: VehicleId::new(id),
        descriptor: VehicleDescriptor {
            brand: "check".into(),
            model: "self-test".into(),
            color: "white".into(),
        },
        movement: topo.movements()[m % topo.movements().len()].id(),
        position_s: 0.0,
        speed: 15.0,
    };
    let mut chain = Vec::new();
    for w in 0..3u64 {
        let reqs: Vec<PlanRequest> = (0..4)
            .map(|k| request(w * 4 + k, (w * 4 + k) as usize * 5))
            .collect();
        let plans = scheduler.schedule(&reqs, w as f64);
        chain.push(packager.package(plans, w as f64));
    }
    let accepts = |blocks: &[Block]| {
        let v = check_chain(blocks, key.as_ref(), &topo, 60, HashSet::new());
        v.rejected.is_empty() && v.conflict.is_none()
    };
    if !accepts(&chain) {
        return Err("a valid chain was rejected".into());
    }

    let rebuild = |b: &Block, prev: Digest, plans: Vec<TravelPlan>| {
        Block::from_parts_anchored(
            b.index(),
            b.signature().to_vec(),
            prev,
            b.timestamp(),
            b.merkle_root(),
            plans,
            b.anchors().to_vec(),
        )
    };
    // A flipped byte in the first plan's position (inside the f64 at
    // offset 8 + 2 + descriptor length), still a decodable plan.
    let victim = &chain[1];
    let mut bytes = victim.plans()[0].encode();
    let desc = u16::from_be_bytes([bytes[8], bytes[9]]) as usize;
    bytes[10 + desc + 7] ^= 0x01;
    let flipped = TravelPlan::decode(&bytes).ok_or("flipped plan no longer decodes")?;
    let mut plans = victim.plans().to_vec();
    plans[0] = flipped;
    let mut bad = chain.clone();
    bad[1] = rebuild(victim, victim.prev_hash(), plans);
    if accepts(&bad) {
        return Err("a block with a flipped plan byte was accepted".into());
    }

    let mut bad = chain.clone();
    bad[2] = rebuild(&chain[2], block_hash(&chain[0]), chain[2].plans().to_vec());
    if accepts(&bad) {
        return Err("a block with a wrong previous hash was accepted".into());
    }

    // Two vehicles handed the same path at the same time, correctly
    // signed: only the conflict check can catch it.
    let twin = chain[2].plans()[0].clone();
    let copy = TravelPlan::new(
        VehicleId::new(999),
        twin.descriptor().clone(),
        *twin.status(),
        twin.movement(),
        twin.profile().clone(),
    );
    let mut bad = chain.clone();
    let mut pk = BlockPackager::new(key.clone());
    pk.restore_tip(block_hash(&chain[1]), 2);
    bad[2] = pk.package(vec![twin, copy], chain[2].timestamp());
    if check_chain(&bad, key.as_ref(), &topo, 60, HashSet::new())
        .conflict
        .is_none()
    {
        return Err("an overlapping plan pair was accepted".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn checker_rejects_every_corruption() {
        super::self_test().expect("self-test");
    }
}
