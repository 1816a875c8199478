// Precondition / invariant checking macros.
//
// SPARSEDET_REQUIRE(cond, msg)  — public-API precondition; throws
//                                 InvalidArgument.
// SPARSEDET_CHECK(cond, msg)    — always-on internal invariant; throws
//                                 InternalError.
// SPARSEDET_DCHECK(cond, msg)   — debug-only internal invariant; compiles
//                                 out in NDEBUG builds.
//
// Messages read "<kind> failed: (cond) msg". They carry no source file or
// line: the text reaches clients in error responses, and it must neither
// expose the build's paths nor change with unrelated edits.
#pragma once

#include <string>

#include "common/error.h"

namespace sparsedet::internal {

[[noreturn]] inline void ThrowInvalidArgument(const char* cond,
                                              const std::string& msg) {
  throw InvalidArgument("precondition failed: (" + std::string(cond) + ") " +
                        msg);
}

[[noreturn]] inline void ThrowInternal(const char* cond,
                                       const std::string& msg) {
  throw InternalError("invariant failed: (" + std::string(cond) + ") " + msg);
}

}  // namespace sparsedet::internal

#define SPARSEDET_REQUIRE(cond, msg)                                \
  do {                                                              \
    if (!(cond)) {                                                  \
      ::sparsedet::internal::ThrowInvalidArgument(#cond, (msg));    \
    }                                                               \
  } while (false)

#define SPARSEDET_CHECK(cond, msg)                                  \
  do {                                                              \
    if (!(cond)) {                                                  \
      ::sparsedet::internal::ThrowInternal(#cond, (msg));           \
    }                                                               \
  } while (false)

#ifdef NDEBUG
#define SPARSEDET_DCHECK(cond, msg) \
  do {                              \
  } while (false)
#else
#define SPARSEDET_DCHECK(cond, msg) SPARSEDET_CHECK(cond, msg)
#endif
