#include "rgb/member_table.hpp"

#include <algorithm>

namespace rgb::core {

namespace {
/// SplitMix64 finalizer: cheap, well-mixed, and stable across platforms
/// (the digest is compared between NEs, so it must be a pure function of
/// the entry values).
std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}
}  // namespace

std::uint64_t MemberTable::entry_hash(const MemberRecord& record,
                                      std::uint64_t last_seq,
                                      std::uint64_t claim_seq) {
  // Chained mixing over every field that reconciliation cares about: a
  // change to the seq, the claim epoch, the hosting AP or the status must
  // flip the digest.
  std::uint64_t h = mix(record.guid.value());
  h = mix(h ^ last_seq);
  h = mix(h ^ claim_seq);
  h = mix(h ^ (record.access_proxy.value() * 4 +
               static_cast<std::uint64_t>(record.status)));
  return h;
}

bool MemberTable::apply(const MembershipOp& op) {
  if (!op.is_member_op()) return false;

  const auto [it, inserted] = records_.try_emplace(op.member.guid);
  Entry& entry = it->second;
  // Idempotent lattice apply: an op that does not advance the record in
  // (claim, seq) order is a duplicate, a stale retransmission, or an
  // assertion derived from a superseded attachment epoch.
  if (!inserted &&
      !record_precedes(entry.claim_seq, entry.last_seq, op.claim_seq,
                       op.seq)) {
    return false;
  }
  if (!inserted) digest_ ^= entry_hash(entry);
  entry.last_seq = op.seq;
  entry.claim_seq = op.claim_seq;
  entry.record = op.member;

  switch (op.kind) {
    case OpKind::kMemberJoin:
    case OpKind::kMemberHandoff:
      entry.record.status = MemberStatus::kOperational;
      break;
    case OpKind::kMemberLeave:
      entry.record.status = MemberStatus::kDisconnected;
      break;
    default:  // kMemberFail (is_member_op() admits no other kind)
      entry.record.status = MemberStatus::kFailed;
      break;
  }
  digest_ ^= entry_hash(entry);
  return true;
}

void MemberTable::upsert(const MemberRecord& rec) {
  const auto [it, inserted] = records_.try_emplace(rec.guid);
  if (!inserted) digest_ ^= entry_hash(it->second);
  it->second.record = rec;
  digest_ ^= entry_hash(it->second);
}

void MemberTable::remove(Guid guid) {
  const auto it = records_.find(guid);
  if (it == records_.end()) return;
  digest_ ^= entry_hash(it->second);
  records_.erase(it);
}

std::optional<MemberRecord> MemberTable::find(Guid guid) const {
  const auto it = records_.find(guid);
  if (it == records_.end()) return std::nullopt;
  return it->second.record;
}

std::optional<TableEntry> MemberTable::lookup(Guid guid) const {
  const auto it = records_.find(guid);
  if (it == records_.end()) return std::nullopt;
  return TableEntry{.record = it->second.record,
                    .last_seq = it->second.last_seq,
                    .claim_seq = it->second.claim_seq,
                    .gid = GroupId{}};
}

bool MemberTable::contains(Guid guid) const {
  const auto it = records_.find(guid);
  return it != records_.end() &&
         it->second.record.status == MemberStatus::kOperational;
}

std::uint64_t MemberTable::last_seq_of(Guid guid) const {
  const auto it = records_.find(guid);
  return it == records_.end() ? 0 : it->second.last_seq;
}

std::uint64_t MemberTable::claim_of(Guid guid) const {
  const auto it = records_.find(guid);
  return it == records_.end() ? 0 : it->second.claim_seq;
}

std::vector<MemberRecord> MemberTable::snapshot() const {
  std::vector<MemberRecord> out;
  out.reserve(records_.size());
  for (const auto& [guid, entry] : records_) {
    if (entry.record.status == MemberStatus::kOperational) {
      out.push_back(entry.record);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const MemberRecord& a, const MemberRecord& b) {
              return a.guid < b.guid;
            });
  return out;
}

std::vector<MemberRecord> MemberTable::members_at(NodeId ap) const {
  std::vector<MemberRecord> out;
  for (const auto& [guid, entry] : records_) {
    if (entry.record.status == MemberStatus::kOperational &&
        entry.record.access_proxy == ap) {
      out.push_back(entry.record);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const MemberRecord& a, const MemberRecord& b) {
              return a.guid < b.guid;
            });
  return out;
}

void MemberTable::merge(const MemberTable& other) {
  for (const auto& [guid, their] : other.records_) {
    const auto [it, inserted] = records_.try_emplace(guid);
    if (!inserted) {
      if (!record_precedes(it->second.claim_seq, it->second.last_seq,
                           their.claim_seq, their.last_seq)) {
        continue;
      }
      digest_ ^= entry_hash(it->second);
    }
    it->second = their;
    digest_ ^= entry_hash(it->second);
  }
}

std::vector<TableEntry> MemberTable::export_entries() const {
  std::vector<TableEntry> out;
  out.reserve(records_.size());
  for (const auto& [guid, entry] : records_) {
    out.push_back(TableEntry{.record = entry.record,
                             .last_seq = entry.last_seq,
                             .claim_seq = entry.claim_seq,
                             .gid = GroupId{}});
  }
  std::sort(out.begin(), out.end(),
            [](const TableEntry& a, const TableEntry& b) {
              return a.record.guid < b.record.guid;
            });
  return out;
}

bool MemberTable::import_entries(const std::vector<TableEntry>& entries) {
  bool changed = false;
  for (const TableEntry& incoming : entries) {
    const auto [it, inserted] = records_.try_emplace(incoming.record.guid);
    if (!inserted) {
      if (!record_precedes(it->second.claim_seq, it->second.last_seq,
                           incoming.claim_seq, incoming.last_seq)) {
        continue;
      }
      digest_ ^= entry_hash(it->second);
    }
    it->second = Entry{incoming.record, incoming.last_seq,
                       incoming.claim_seq};
    digest_ ^= entry_hash(it->second);
    changed = true;
  }
  return changed;
}

std::vector<TableEntry> MemberTable::newer_than(
    const std::vector<TableEntry>& incoming) const {
  std::unordered_map<Guid, std::pair<std::uint64_t, std::uint64_t>> theirs;
  theirs.reserve(incoming.size());
  for (const TableEntry& entry : incoming) {
    theirs[entry.record.guid] = {entry.claim_seq, entry.last_seq};
  }
  std::vector<TableEntry> out;
  for (const auto& [guid, entry] : records_) {
    const auto it = theirs.find(guid);
    if (it == theirs.end() ||
        record_precedes(it->second.first, it->second.second, entry.claim_seq,
                        entry.last_seq)) {
      out.push_back(TableEntry{.record = entry.record,
                               .last_seq = entry.last_seq,
                               .claim_seq = entry.claim_seq,
                               .gid = GroupId{}});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TableEntry& a, const TableEntry& b) {
              return a.record.guid < b.record.guid;
            });
  return out;
}

bool operator==(const MemberTable& a, const MemberTable& b) {
  return a.snapshot() == b.snapshot();
}

void MemberTable::clear() {
  records_.clear();
  digest_ = 0;
}

}  // namespace rgb::core
