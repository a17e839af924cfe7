// Element types of polyglot device arrays.
#pragma once

#include <cstdint>
#include <string_view>
#include <type_traits>

#include "common/units.hpp"

namespace grout::polyglot {

enum class ElemType : std::uint8_t { F32, F64, I32, I64 };

constexpr Bytes elem_size(ElemType t) {
  switch (t) {
    case ElemType::F32: return 4;
    case ElemType::F64: return 8;
    case ElemType::I32: return 4;
    case ElemType::I64: return 8;
  }
  return 4;
}

/// The ElemType that stores the C++ type T (cv-qualifiers ignored).
template <typename T>
constexpr ElemType elem_type_of() {
  using U = std::remove_cv_t<T>;
  if constexpr (std::is_same_v<U, float>) {
    return ElemType::F32;
  } else if constexpr (std::is_same_v<U, double>) {
    return ElemType::F64;
  } else if constexpr (std::is_same_v<U, std::int32_t>) {
    return ElemType::I32;
  } else {
    static_assert(std::is_same_v<U, std::int64_t>, "not a device array element type");
    return ElemType::I64;
  }
}

/// Call `fn(T{})` with the C++ type T that stores `t`. Typed code switches
/// on the element type here, once, rather than once per element.
template <typename Fn>
decltype(auto) visit(ElemType t, Fn&& fn) {
  switch (t) {
    case ElemType::F64: return fn(double{});
    case ElemType::I32: return fn(std::int32_t{});
    case ElemType::I64: return fn(std::int64_t{});
    case ElemType::F32: break;
  }
  return fn(float{});
}

const char* to_string(ElemType t);

/// Parse "float" / "double" / "int" / "long" / "sint32" / "sint64".
/// Returns false on unknown names.
bool parse_elem_type(std::string_view name, ElemType& out);

}  // namespace grout::polyglot
