//===- perfbench/src/Trace.cpp - In-memory spans for the traced run -------===//

#include "Trace.h"

#include "Common.h"

#include <fstream>

using namespace perfbench;

namespace {
int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct LocalSlot {
  uint64_t Generation = 0;
  void *Buf = nullptr;
};
thread_local LocalSlot Slot;
} // namespace

Tracer &Tracer::instance() {
  static Tracer T;
  return T;
}

Tracer::Buffer &Tracer::local() {
  if (Slot.Buf && Slot.Generation == Generation.load())
    return *static_cast<Buffer *>(Slot.Buf);
  std::lock_guard<std::mutex> Lock(Mutex);
  {
    Buffers.push_back(std::make_unique<Buffer>());
    Buffers.back()->Thread = static_cast<int>(Buffers.size());
    Slot.Generation = Generation.load();
    Slot.Buf = Buffers.back().get();
  }
  return *static_cast<Buffer *>(Slot.Buf);
}

int64_t Tracer::begin(const char *Name, int64_t Op) {
  if (!Recording.load(std::memory_order_relaxed))
    return -1;
  Buffer &B = local();
  Span S;
  S.Name = Name;
  S.Op = Op;
  S.Thread = B.Thread;
  S.Parent = B.Open.empty() ? -1 : B.Open.back();
  S.StartNs = nowNs();
  B.Spans.push_back(S);
  int64_t Token = static_cast<int64_t>(B.Spans.size()) - 1;
  B.Open.push_back(Token);
  return Token;
}

void Tracer::end(int64_t Token) {
  if (Token < 0)
    return;
  int64_t Now = nowNs();
  Buffer &B = local();
  B.Spans[static_cast<size_t>(Token)].EndNs = Now;
  B.Open.pop_back();
}

std::vector<Span> Tracer::take() {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::vector<Span> All;
  for (const std::unique_ptr<Buffer> &B : Buffers) {
    if (!B->Open.empty())
      throw FatalError{"trace taken while a span is still open"};
    int64_t Base = static_cast<int64_t>(All.size());
    for (Span S : B->Spans) {
      if (S.Parent >= 0)
        S.Parent += Base;
      All.push_back(S);
    }
  }
  Buffers.clear();
  ++Generation;
  return All;
}

SpanIndex::SpanIndex(const std::vector<Span> &Spans)
    : Spans(Spans), ChildSeconds(Spans.size(), 0.0) {
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildSeconds[static_cast<size_t>(S.Parent)] += S.seconds();
}

std::map<int64_t, double> SpanIndex::perOp(const std::string &Name) const {
  std::map<int64_t, double> Out;
  for (const Span &S : Spans)
    if (Name == S.Name)
      Out[S.Op] += S.seconds();
  return Out;
}

double SpanIndex::total(const std::string &Name) const {
  double Sum = 0;
  for (const Span &S : Spans)
    if (Name == S.Name)
      Sum += S.seconds();
  return Sum;
}

double SpanIndex::selfTotal(const std::string &Name) const {
  double Sum = 0;
  for (size_t I = 0; I < Spans.size(); ++I)
    if (Name == Spans[I].Name)
      Sum += Spans[I].seconds() - ChildSeconds[I];
  return Sum;
}

void perfbench::writeChromeTrace(const std::string &Path,
                                 const std::vector<Span> &Spans) {
  std::ofstream Out(Path);
  if (!Out)
    throw FatalError{"cannot write the trace file " + Path};
  int64_t Origin = Spans.empty() ? 0 : Spans.front().StartNs;
  for (const Span &S : Spans)
    Origin = std::min(Origin, S.StartNs);
  Out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    if (I)
      Out << ",\n";
    Out << "{\"name\":\"" << S.Name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << S.Thread << ",\"ts\":" << (S.StartNs - Origin) / 1000.0
        << ",\"dur\":" << (S.EndNs - S.StartNs) / 1000.0
        << ",\"args\":{\"op\":" << S.Op << ",\"span\":" << I
        << ",\"parent\":" << S.Parent << "}}";
  }
  Out << "]}\n";
}
