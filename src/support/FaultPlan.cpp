//===- support/FaultPlan.cpp ---------------------------------------------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/FaultPlan.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace pt;

namespace {

bool parseStep(std::string_view Value, uint64_t &Out) {
  if (Value.empty())
    return false;
  uint64_t N = 0;
  for (char C : Value) {
    if (C < '0' || C > '9')
      return false;
    N = N * 10 + static_cast<uint64_t>(C - '0');
  }
  if (N == 0)
    return false; // Step counting starts at 1; 0 means "directive off".
  Out = N;
  return true;
}

} // namespace

bool FaultPlan::parse(std::string_view Spec, FaultPlan &Out,
                      std::string &Error) {
  FaultPlan Plan;
  size_t Pos = 0;
  while (Pos < Spec.size()) {
    size_t End = Spec.find(',', Pos);
    if (End == std::string_view::npos)
      End = Spec.size();
    std::string_view Item = Spec.substr(Pos, End - Pos);
    Pos = End + 1;
    if (Item.empty())
      continue;
    size_t Eq = Item.find('=');
    std::string_view Key = Item.substr(0, Eq);
    std::string_view Value =
        Eq == std::string_view::npos ? std::string_view{} : Item.substr(Eq + 1);
    // Reject duplicates instead of last-write-wins: a concatenated plan
    // that silently drops a fault fakes green tests.
    bool Duplicate =
        (Key == "oom-at-step" && Plan.OomAtStep != 0) ||
        (Key == "cancel-at-step" && Plan.CancelAtStep != 0) ||
        (Key == "slow-rule" && Plan.SlowRule) ||
        (Key == "drop-scall" && Plan.DropSCall);
    if (Duplicate) {
      Error = "duplicate fault directive '" + std::string(Key) +
              "': each directive may appear at most once per plan";
      return false;
    }
    if (Key == "oom-at-step") {
      if (!parseStep(Value, Plan.OomAtStep)) {
        Error = "oom-at-step wants a positive integer, got '" +
                std::string(Value) + "'";
        return false;
      }
    } else if (Key == "cancel-at-step") {
      if (!parseStep(Value, Plan.CancelAtStep)) {
        Error = "cancel-at-step wants a positive integer, got '" +
                std::string(Value) + "'";
        return false;
      }
    } else if (Key == "slow-rule") {
      Plan.SlowRule = ruleByName(Value);
      if (!Plan.SlowRule) {
        Error = "slow-rule wants a rule name (";
        for (size_t I = 0; I != NumRules; ++I)
          Error += std::string(I ? ", " : "") + RuleNames[I];
        Error += "), got '" + std::string(Value) + "'";
        return false;
      }
    } else if (Key == "drop-scall") {
      if (Eq != std::string_view::npos) {
        Error = "drop-scall takes no value";
        return false;
      }
      Plan.DropSCall = true;
    } else {
      Error = "unknown fault directive '" + std::string(Item) + "'";
      return false;
    }
  }
  Out = Plan;
  return true;
}

FaultPlan FaultPlan::fromEnv() {
  FaultPlan Plan;
  if (const char *Spec = std::getenv("HYBRIDPT_FAULT_PLAN")) {
    std::string Error;
    if (!FaultPlan::parse(Spec, Plan, Error)) {
      std::fprintf(stderr, "HYBRIDPT_FAULT_PLAN: %s\n", Error.c_str());
      std::abort(); // A typo'd plan must not silently test nothing.
    }
    return Plan;
  }
  // Legacy spelling kept alive for the fuzz harness self-test and any
  // scripts that predate the registry.
  if (const char *Break = std::getenv("HYBRIDPT_TEST_BREAK"))
    Plan.DropSCall = std::strcmp(Break, "drop-scall") == 0;
  return Plan;
}

std::string FaultPlan::spec() const {
  std::string Out;
  auto Append = [&Out](const std::string &Item) {
    if (!Out.empty())
      Out += ',';
    Out += Item;
  };
  if (OomAtStep != 0)
    Append("oom-at-step=" + std::to_string(OomAtStep));
  if (CancelAtStep != 0)
    Append("cancel-at-step=" + std::to_string(CancelAtStep));
  if (SlowRule)
    Append(std::string("slow-rule=") + ruleName(*SlowRule));
  if (DropSCall)
    Append("drop-scall");
  return Out;
}

const FaultPlan *RequestFaultPlan::planForRequest(uint64_t N) const {
  for (const RequestFault &E : Entries)
    if (E.Request == N)
      return &E.Plan;
  return nullptr;
}

bool RequestFaultPlan::parse(std::string_view Spec, RequestFaultPlan &Out,
                             std::string &Error) {
  RequestFaultPlan Sched;
  size_t Pos = 0;
  while (Pos < Spec.size()) {
    size_t End = Spec.find(';', Pos);
    if (End == std::string_view::npos)
      End = Spec.size();
    std::string_view Item = Spec.substr(Pos, End - Pos);
    Pos = End + 1;
    if (Item.empty())
      continue;
    size_t Eq = Item.find('=');
    if (Eq == std::string_view::npos) {
      Error = "request-fault entry '" + std::string(Item) +
              "' wants N=<fault-plan-spec>";
      return false;
    }
    RequestFault Fault;
    if (!parseStep(Item.substr(0, Eq), Fault.Request)) {
      Error = "request-fault entry '" + std::string(Item) +
              "' wants a positive request ordinal before '='";
      return false;
    }
    for (const RequestFault &Seen : Sched.Entries) {
      if (Seen.Request == Fault.Request) {
        Error = "duplicate request-fault entry for request " +
                std::to_string(Fault.Request) +
                ": each request may carry at most one plan";
        return false;
      }
    }
    std::string PlanError;
    if (!FaultPlan::parse(Item.substr(Eq + 1), Fault.Plan, PlanError)) {
      Error = "request " + std::to_string(Fault.Request) + ": " + PlanError;
      return false;
    }
    if (!Fault.Plan.any()) {
      Error = "request-fault entry for request " +
              std::to_string(Fault.Request) + " carries an empty plan";
      return false;
    }
    Sched.Entries.push_back(std::move(Fault));
  }
  std::sort(Sched.Entries.begin(), Sched.Entries.end(),
            [](const RequestFault &A, const RequestFault &B) {
              return A.Request < B.Request;
            });
  Out = std::move(Sched);
  return true;
}

RequestFaultPlan RequestFaultPlan::fromEnv() {
  RequestFaultPlan Sched;
  if (const char *Spec = std::getenv("HYBRIDPT_SERVE_FAULT_PLAN")) {
    std::string Error;
    if (!RequestFaultPlan::parse(Spec, Sched, Error)) {
      std::fprintf(stderr, "HYBRIDPT_SERVE_FAULT_PLAN: %s\n", Error.c_str());
      std::abort(); // A typo'd schedule must not silently test nothing.
    }
  }
  return Sched;
}

std::string RequestFaultPlan::spec() const {
  std::string Out;
  for (const RequestFault &E : Entries) {
    if (!Out.empty())
      Out += ';';
    Out += std::to_string(E.Request) + "=" + E.Plan.spec();
  }
  return Out;
}
