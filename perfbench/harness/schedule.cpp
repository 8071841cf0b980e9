#include "schedule.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

std::uint64_t Schedule::member_ops() const {
  std::uint64_t n = 0;
  for (const ScheduledOp& op : ops) n += op.is_member_op() ? 1 : 0;
  return n;
}

Schedule load_schedule(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open schedule " + path);
  Schedule s;
  std::string line;
  std::size_t lineno = 0;
  bool ended = false;
  const auto fail = [&](const std::string& why) {
    throw std::runtime_error(path + ":" + std::to_string(lineno) + ": " + why);
  };
  while (std::getline(in, line)) {
    ++lineno;
    std::istringstream ls(line);
    std::string key;
    if (!(ls >> key)) continue;
    if (lineno == 1) {
      int version = 0;
      if (key != "rgbbench" || !(ls >> version) || version != 1) {
        fail("not an rgbbench v1 schedule");
      }
      continue;
    }
    bool ok = true;
    if (key == "workload") {
      ok = static_cast<bool>(ls >> s.workload);
    } else if (key == "seed") {
      ok = static_cast<bool>(ls >> s.seed);
    } else if (key == "layout") {
      ok = static_cast<bool>(ls >> s.tiers >> s.ring_size);
    } else if (key == "groups") {
      ok = static_cast<bool>(ls >> s.groups);
    } else if (key == "probe_us") {
      ok = static_cast<bool>(ls >> s.probe_us);
    } else if (key == "warmup_us") {
      ok = static_cast<bool>(ls >> s.warmup_us);
    } else if (key == "preload_spacing_us") {
      ok = static_cast<bool>(ls >> s.preload_spacing_us);
    } else if (key == "window_us") {
      ok = static_cast<bool>(ls >> s.window_us);
    } else if (key == "settle_us") {
      ok = static_cast<bool>(ls >> s.settle_us);
    } else if (key == "query") {
      s.query.enabled = true;
      ok = static_cast<bool>(ls >> s.query.think_us >> s.query.timeout_us >>
                             s.query.bms_every) &&
           s.query.bms_every > 0;
    } else if (key == "P") {
      std::uint64_t guid = 0, ap = 0;
      ok = static_cast<bool>(ls >> guid >> ap);
      s.preload.emplace_back(guid, ap);
    } else if (key == "O") {
      ScheduledOp op;
      std::string kind;
      ok = static_cast<bool>(ls >> op.at_us >> kind >> op.subject) &&
           kind.size() == 1;
      if (ok) {
        op.kind = kind[0];
        if (op.kind == 'J' || op.kind == 'H') {
          ok = static_cast<bool>(ls >> op.ap);
        } else if (std::string("LFCRS").find(op.kind) == std::string::npos) {
          fail("unknown op kind " + kind);
        }
      }
      if (ok && !s.ops.empty() && op.at_us < s.ops.back().at_us) {
        fail("ops out of time order");
      }
      s.ops.push_back(op);
    } else if (key == "end") {
      ended = true;
      break;
    } else {
      fail("unknown record " + key);
    }
    if (!ok) fail("malformed " + key + " record");
  }
  if (!ended) fail("missing end record (truncated schedule)");
  return s;
}

}  // namespace perfbench
