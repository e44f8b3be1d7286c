/**
 * @file
 * The process-wide tag intern table.
 *
 * Site tags ("assert.main.12", "lock.worker.7", ...) name failure and
 * lock sites in the IR and in every recorded trace event.  Interning
 * turns each distinct tag into a small dense id once, when the IR is
 * built, so the VM's record path copies a 32-bit id instead of a
 * string and the coverage fold can memoise per id.
 *
 * The table is append-only and lives for the whole process: an id,
 * once handed out, names the same string forever, so ids can be
 * copied between modules, recorders and threads freely.  Interning
 * takes a mutex; tagName() takes none.  Strings live in fixed-size
 * chunks that never move, and the count of ids handed out is published
 * (release store) only after the new id's string is in place, so a
 * reader holding an id always finds its string.
 *
 * Id 0 is the empty tag (kNoTag): intern("") returns it and
 * tagName(kNoTag) is "".  Ids fit in kTagIdBits bits, so a trace event
 * can pack one beside its kind byte; interning more distinct tags than
 * that is a fatal error.
 */
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace conair {

/** Dense id of an interned tag. */
using TagId = uint32_t;

/** The empty tag. */
inline constexpr TagId kNoTag = 0;

/** Width of a TagId in bits (ids are < 2^kTagIdBits). */
inline constexpr unsigned kTagIdBits = 24;

/** The id of @p s, assigning the next one on first sight.  Idempotent;
 *  thread-safe. */
TagId intern(std::string_view s);

/** The string @p id names.  Lock-free; the reference stays valid for
 *  the life of the process.  An id that intern() never handed out is a
 *  fatal error. */
const std::string &tagName(TagId id);

} // namespace conair
