// Layer: the building block of every model in this library.
//
// Models here are strictly sequential (as are all networks in the paper),
// so layers expose a plain forward/backward pair instead of a tape. A
// layer caches whatever it needs during forward; backward reads the cache
// and returns the gradient w.r.t. the layer INPUT while accumulating
// gradients w.r.t. its parameters. Propagating gradients all the way back
// to the input is what lets the attack implementations (C&W, EAD, FGSM,
// DeepFool) compute d(loss)/d(image).
//
// Caching contract:
//   * forward(x, Train|Eval) populates the backward cache; forward(x,
//     Infer) leaves every backward cache untouched, so a backward() after
//     an Infer pass still differentiates the last caching forward.
//   * backward() treats the cache as READ-ONLY: it may be called any
//     number of times after one caching forward, each call propagating a
//     new output-gradient seed through the same cached activations
//     (DeepFool seeds one backward per class from a single forward).
//   * Output buffers handed out by forward/backward are fully overwritten
//     (or acquired zeroed) before being returned, so recycling them
//     through a Workspace is bitwise-invisible.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/mode.hpp"
#include "tensor/tensor.hpp"
#include "tensor/workspace.hpp"

namespace adv::nn {

/// Arena of reusable buffers shared by a model and its layers; defined in
/// src/tensor (shape-keyed storage is a tensor-library concern).
using Workspace = ::adv::Workspace;

class Layer {
 public:
  virtual ~Layer() = default;

  /// Computes the layer output for `input` (leading dimension = batch).
  /// Mode::Train toggles train-only behaviour (dropout); Mode::Infer
  /// neither reads nor writes backward caches (see the caching contract
  /// above).
  virtual Tensor forward(const Tensor& input, Mode mode) = 0;

  /// Given d(loss)/d(output), accumulates parameter gradients and returns
  /// d(loss)/d(input). Must follow a caching forward on the same batch;
  /// may be called repeatedly (the cache is not consumed).
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// Learnable parameters (empty for stateless layers). Pointers remain
  /// valid for the life of the layer.
  virtual std::vector<Tensor*> parameters() { return {}; }

  /// Read-only view of the same parameters, aligned with the mutable
  /// overload. Lets const callers (parameter counting, serialization)
  /// avoid const_cast.
  virtual std::vector<const Tensor*> parameters() const { return {}; }

  /// Gradient buffers, aligned index-by-index with parameters().
  virtual std::vector<Tensor*> gradients() { return {}; }

  void zero_grad() {
    for (Tensor* g : gradients()) g->fill(0.0f);
  }

  /// Attaches the owning model's buffer arena; nullptr detaches (layers
  /// then allocate fresh tensors — the standalone-layer and test path).
  void set_workspace(Workspace* ws) { ws_ = ws; }
  Workspace* workspace() const { return ws_; }

  virtual std::string name() const = 0;

 protected:
  /// Output/scratch buffer of `shape` from the attached workspace (fresh
  /// zero-filled tensor when detached). `zeroed` must be true whenever the
  /// caller accumulates into the buffer instead of overwriting it.
  Tensor make_buffer(const Shape& shape, bool zeroed = false) {
    return ws_ ? ws_->acquire(shape, zeroed) : Tensor(shape);
  }

  /// Returns a make_buffer() scratch tensor to the arena once it is no
  /// longer referenced (no-op when detached).
  void recycle(Tensor&& t) {
    if (ws_) ws_->release(std::move(t));
  }

 private:
  Workspace* ws_ = nullptr;
};

}  // namespace adv::nn
