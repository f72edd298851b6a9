#include "op2/io.hpp"

#include <vector>

#include "op2/checkpoint.hpp"

namespace op2 {

std::vector<std::uint8_t> pack_dat(const DatBase& dat) {
  const std::size_t entry = dat.entry_bytes();
  std::vector<std::uint8_t> out(static_cast<std::size_t>(dat.set().size()) *
                                entry);
  for (index_t e = 0; e < dat.set().size(); ++e) {
    dat.pack_entry(e, out.data() + static_cast<std::size_t>(e) * entry);
  }
  return out;
}

void unpack_dat(DatBase& dat, std::span<const std::uint8_t> bytes) {
  const std::size_t entry = dat.entry_bytes();
  apl::require(bytes.size() ==
                   static_cast<std::size_t>(dat.set().size()) * entry,
               "unpack_dat: size mismatch for dat '", dat.name(), "'");
  for (index_t e = 0; e < dat.set().size(); ++e) {
    dat.unpack_entry(e, bytes.data() + static_cast<std::size_t>(e) * entry);
  }
}

void dump_dats(Context& ctx, apl::io::File& file) {
  for (index_t d = 0; d < ctx.num_dats(); ++d) {
    const DatBase& dat = ctx.dat(d);
    file.put<std::uint8_t>("dat/" + dat.name(), pack_dat(dat),
                           {static_cast<std::uint64_t>(dat.set().size()),
                            static_cast<std::uint64_t>(dat.entry_bytes())});
  }
}

void dump_dats(Distributed& dist, apl::io::File& file) {
  // Gather authoritative owner values into the global context, then dump.
  Context& ctx = dist.global_context();
  for (index_t d = 0; d < ctx.num_dats(); ++d) {
    dist.fetch(ctx.dat(d));
  }
  dump_dats(ctx, file);
}

void load_dats(Context& ctx, const apl::io::File& file) {
  for (index_t d = 0; d < ctx.num_dats(); ++d) {
    DatBase& dat = ctx.dat(d);
    const std::string key = "dat/" + dat.name();
    if (!file.contains(key)) continue;
    unpack_dat(dat, file.get<std::uint8_t>(key));
  }
}

}  // namespace op2
