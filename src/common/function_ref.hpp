// FunctionRef — a non-owning reference to a callable.
//
// The streamed framing layer (src/net/message) hands every payload chunk
// to a caller's callback. std::function would heap-allocate a capturing
// lambda once per message; a FunctionRef is two pointers and never
// allocates. It must not outlive the callable it refers to, so take it as
// a parameter and never store it.
#pragma once

#include <memory>
#include <type_traits>
#include <utility>

#include "common/contract_annotations.hpp"

REDIST_LAYER("common");

namespace redist {

template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, FunctionRef> &&
                std::is_invocable_r_v<R, F&, Args...>>>
  FunctionRef(F&& f)  // implicit, so callers pass lambdas
      : object_(const_cast<void*>(
            static_cast<const void*>(std::addressof(f)))),
        call_([](void* object, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(object))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(object_, std::forward<Args>(args)...);
  }

 private:
  void* object_;
  R (*call_)(void*, Args...);
};

}  // namespace redist
