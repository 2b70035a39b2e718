#include "trace.hpp"

#include <cstdio>
#include <memory>

namespace perfbench {

bool write_trace(const std::string& path, const std::vector<SubmitSpan>& submits,
                 const std::vector<CallSpan>& calls) {
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (!f) return false;
  std::fprintf(f.get(),
               "layer,client,item,start_ns,end_ns,inspect_s,init_s,loop_s,"
               "merge_s,check_s,refs,private_bytes\n");
  for (const SubmitSpan& s : submits) {
    const sapp::SchemeResult& r = s.result;
    std::fprintf(f.get(), "submit,%u,%u,%llu,%llu,%.9g,%.9g,%.9g,%.9g,%.9g,%llu,%zu\n",
                 s.client, s.site, static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns), r.inspect_s,
                 r.phases.init_s, r.phases.loop_s, r.phases.merge_s, r.check_s,
                 static_cast<unsigned long long>(s.refs), r.private_bytes);
  }
  for (const CallSpan& c : calls)
    std::fprintf(f.get(), "%s,0,%u,%llu,%llu,,,,,,,\n", c.layer.c_str(), c.item,
                 static_cast<unsigned long long>(c.start_ns),
                 static_cast<unsigned long long>(c.end_ns));
  return std::ferror(f.get()) == 0;
}

}  // namespace perfbench
