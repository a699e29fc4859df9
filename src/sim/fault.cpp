#include "sim/fault.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "sim/simulator.hpp"

namespace netrs::sim {

namespace {

[[noreturn]] void bad_entry(const std::string& entry, const std::string& why) {
  throw std::invalid_argument("FaultPlan: bad entry \"" + entry + "\": " +
                              why);
}

std::vector<std::string> split_tokens(const std::string& entry) {
  std::vector<std::string> out;
  std::istringstream in(entry);
  std::string tok;
  while (in >> tok) out.push_back(tok);
  return out;
}

// "1.2s" / "50ms" / "700us" / "30ns" -> nanoseconds. The unit suffix is
// mandatory: a bare number is ambiguous and rejected.
Time parse_time(const std::string& entry, const std::string& tok) {
  std::size_t i = 0;
  while (i < tok.size() &&
         (std::isdigit(static_cast<unsigned char>(tok[i])) != 0 ||
          tok[i] == '.')) {
    ++i;
  }
  if (i == 0) bad_entry(entry, "expected a time, got \"" + tok + "\"");
  // The whole scanned number must parse: "1.2.3ms" is not 1.2 ms.
  double value = 0.0;
  const char* const digits_end = tok.data() + i;
  const auto [end, ec] = std::from_chars(tok.data(), digits_end, value);
  if (ec != std::errc{} || end != digits_end) {
    bad_entry(entry, "unparseable time value \"" + tok + "\"");
  }
  const std::string unit = tok.substr(i);
  double scale = 0.0;
  if (unit == "ns") {
    scale = 1.0;
  } else if (unit == "us") {
    scale = 1e3;
  } else if (unit == "ms") {
    scale = 1e6;
  } else if (unit == "s") {
    scale = 1e9;
  } else {
    bad_entry(entry, "time \"" + tok + "\" needs a unit suffix (ns/us/ms/s)");
  }
  return static_cast<Time>(std::llround(value * scale));
}

int parse_int(const std::string& entry, const std::string& tok,
              const char* what) {
  try {
    std::size_t used = 0;
    const int v = std::stoi(tok, &used);
    if (used != tok.size() || v < 0) throw std::invalid_argument(tok);
    return v;
  } catch (const std::exception&) {
    bad_entry(entry, std::string("expected a non-negative ") + what +
                         ", got \"" + tok + "\"");
  }
}

// "x8" or "8" -> 8.0; the slow-node inflation multiplier.
double parse_factor(const std::string& entry, const std::string& tok) {
  const std::string digits = (tok.size() > 1 && tok.front() == 'x')
                                 ? tok.substr(1)
                                 : tok;
  try {
    std::size_t used = 0;
    const double v = std::stod(digits, &used);
    if (used != digits.size() || v <= 0.0) throw std::invalid_argument(tok);
    return v;
  } catch (const std::exception&) {
    bad_entry(entry, "expected a positive inflation factor (e.g. x8), got \"" +
                         tok + "\"");
  }
}

FaultUnit parse_unit(const std::string& entry, const std::string& tok) {
  if (tok == "server") return FaultUnit::kServer;
  if (tok == "accel" || tok == "accelerator") return FaultUnit::kAccelerator;
  if (tok == "rsnode") return FaultUnit::kRsNode;
  bad_entry(entry, "unknown target \"" + tok +
                       "\" (expected server/accel/rsnode)");
}

std::string load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::invalid_argument("FaultPlan: cannot read plan file \"" + path +
                                "\"");
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace

FaultPlan FaultPlan::parse(const std::string& spec) {
  // An '@path' spec names a file holding the actual plan.
  std::size_t first = spec.find_first_not_of(" \t\r\n");
  if (first != std::string::npos && spec[first] == '@') {
    return parse(load_file(spec.substr(first + 1)));
  }

  FaultPlan plan;
  std::string entry;
  // Entries split on newlines and ';'; '#' comments run to end of line.
  std::string normalized = spec;
  std::replace(normalized.begin(), normalized.end(), ';', '\n');
  std::istringstream lines(normalized);
  while (std::getline(lines, entry)) {
    const std::size_t hash = entry.find('#');
    if (hash != std::string::npos) entry.erase(hash);
    std::vector<std::string> tok = split_tokens(entry);
    if (tok.empty()) continue;
    std::size_t i = 0;
    if (tok[i] == "at") ++i;  // optional leading keyword
    if (i >= tok.size()) bad_entry(entry, "missing time");
    FaultEvent ev;
    ev.at = parse_time(entry, tok[i++]);
    if (i >= tok.size()) bad_entry(entry, "missing action");
    const std::string verb = tok[i++];
    auto need = [&](std::size_t n, const char* what) {
      if (tok.size() - i < n) bad_entry(entry, std::string("missing ") + what);
    };
    auto done = [&] {
      if (i != tok.size()) {
        bad_entry(entry, "trailing tokens after \"" + tok[i - 1] + "\"");
      }
    };
    if (verb == "crash" || verb == "fail") {
      need(2, "target (e.g. server 3)");
      ev.op = FaultOp::kFail;
      ev.unit = parse_unit(entry, tok[i]);
      ev.index = parse_int(entry, tok[i + 1], "target index");
      i += 2;
    } else if (verb == "recover" || verb == "restore") {
      need(2, "target (e.g. server 3)");
      ev.op = FaultOp::kRecover;
      ev.unit = parse_unit(entry, tok[i]);
      ev.index = parse_int(entry, tok[i + 1], "target index");
      i += 2;
    } else if (verb == "slow") {
      need(3, "target and factor (e.g. server 3 x8)");
      ev.op = FaultOp::kSlow;
      ev.unit = parse_unit(entry, tok[i]);
      if (ev.unit != FaultUnit::kServer) {
        bad_entry(entry, "slow applies to servers only");
      }
      ev.index = parse_int(entry, tok[i + 1], "target index");
      ev.factor = parse_factor(entry, tok[i + 2]);
      i += 3;
    } else if (verb == "link-down" || verb == "link-up") {
      need(2, "link endpoints (two NodeIds)");
      ev.op = verb == "link-down" ? FaultOp::kLinkDown : FaultOp::kLinkUp;
      ev.unit = FaultUnit::kLink;
      ev.index = parse_int(entry, tok[i], "link endpoint");
      ev.peer = parse_int(entry, tok[i + 1], "link endpoint");
      i += 2;
    } else {
      bad_entry(entry, "unknown action \"" + verb + "\"");
    }
    done();
    if (ev.at < 0) bad_entry(entry, "negative time");
    plan.events_.push_back(ev);
  }
  std::stable_sort(
      plan.events_.begin(), plan.events_.end(),
      [](const FaultEvent& a, const FaultEvent& b) { return a.at < b.at; });
  return plan;
}

void FaultInjector::arm(const FaultPlan& plan) {
  for (const FaultEvent& e : plan.events()) {
    // Copying the (small, trivially copyable) event into the task keeps
    // the injector free of plan-lifetime concerns.
    sim_.at(e.at, [this, e] { execute(e); });
  }
}

void FaultInjector::execute(const FaultEvent& e) {
  if (e.unit == FaultUnit::kLink) {
    if (!link_hook_) {
      ++unbound_;
      return;
    }
    link_hook_(e.index, e.peer, e.op == FaultOp::kLinkUp);
    ++fired_;
    return;
  }
  std::map<int, Hooks>* table = nullptr;
  switch (e.unit) {
    case FaultUnit::kServer:
      table = &servers_;
      break;
    case FaultUnit::kAccelerator:
      table = &accels_;
      break;
    case FaultUnit::kRsNode:
      table = &rsnodes_;
      break;
    case FaultUnit::kLink:
      break;  // handled above
  }
  const auto it = table->find(e.index);
  if (it == table->end()) {
    ++unbound_;
    return;
  }
  const Hooks& hooks = it->second;
  switch (e.op) {
    case FaultOp::kFail:
      if (!hooks.fail) {
        ++unbound_;
        return;
      }
      hooks.fail();
      break;
    case FaultOp::kRecover:
      if (!hooks.recover) {
        ++unbound_;
        return;
      }
      hooks.recover();
      break;
    case FaultOp::kSlow:
      if (!hooks.slow) {
        ++unbound_;
        return;
      }
      hooks.slow(e.factor);
      break;
    case FaultOp::kLinkDown:
    case FaultOp::kLinkUp:
      break;  // handled above
  }
  ++fired_;
}

}  // namespace netrs::sim
