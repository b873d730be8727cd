#include "nn/module.h"

namespace usb {

void Module::collect_parameters(std::vector<Parameter*>& out) {
  out.insert(out.end(), parameters_.begin(), parameters_.end());
  for (Module* child : children_) child->collect_parameters(out);
}

void Module::collect_parameters(std::vector<const Parameter*>& out) const {
  out.insert(out.end(), parameters_.begin(), parameters_.end());
  for (const Module* child : children_) child->collect_parameters(out);
}

void Module::collect_state(std::vector<StateTensor>& out) {
  for (Parameter* p : parameters_) out.push_back(StateTensor{p->name, &p->value});
  out.insert(out.end(), buffers_.begin(), buffers_.end());
  for (Module* child : children_) child->collect_state(out);
}

void Module::collect_state(std::vector<ConstStateTensor>& out) const {
  for (const Parameter* p : parameters_) out.push_back(ConstStateTensor{p->name, &p->value});
  for (const StateTensor& buffer : buffers_) {
    out.push_back(ConstStateTensor{buffer.name, buffer.tensor});
  }
  for (const Module* child : children_) child->collect_state(out);
}

void Module::set_training(bool training) {
  training_ = training;
  for (Module* child : children_) child->set_training(training);
}

void Module::set_param_grads_enabled(bool enabled) {
  param_grads_enabled_ = enabled;
  for (Module* child : children_) child->set_param_grads_enabled(enabled);
}

}  // namespace usb
